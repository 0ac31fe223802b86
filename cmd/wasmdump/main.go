// Command wasmdump inspects a WebAssembly binary: section summary,
// imports/exports, and optionally a disassembly of function bodies or
// the register IR the compiled tier lowers each body to.
//
//	wasmdump [-d] [-ir] [-validate] program.wasm
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"leapsandbounds/internal/compiled"
	"leapsandbounds/internal/rir"
	"leapsandbounds/internal/validate"
	"leapsandbounds/internal/wasm"
)

func main() {
	var (
		disasm = flag.Bool("d", false, "disassemble function bodies")
		dumpIR = flag.Bool("ir", false, "print each function's stack ops next to its lowered register IR")
		check  = flag.Bool("validate", true, "type-check the module")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(flag.Arg(0), *disasm, *dumpIR, *check); err != nil {
		fmt.Fprintln(os.Stderr, "wasmdump:", err)
		os.Exit(1)
	}
}

func run(path string, disasm, dumpIR, check bool) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	m, err := wasm.Decode(data)
	if err != nil {
		return err
	}
	if check {
		if err := validate.Module(m); err != nil {
			return err
		}
		fmt.Println("module validates OK")
	}

	fmt.Printf("types:    %d\n", len(m.Types))
	fmt.Printf("imports:  %d\n", len(m.Imports))
	fmt.Printf("funcs:    %d\n", len(m.Funcs))
	fmt.Printf("tables:   %d\n", len(m.Tables))
	fmt.Printf("memories: %d\n", len(m.Mems))
	fmt.Printf("globals:  %d\n", len(m.Globals))
	fmt.Printf("exports:  %d\n", len(m.Exports))
	fmt.Printf("elems:    %d\n", len(m.Elems))
	fmt.Printf("data:     %d segments\n", len(m.Data))

	for _, im := range m.Imports {
		fmt.Printf("import %s %q.%q\n", im.Kind, im.Module, im.Name)
	}
	for _, e := range m.Exports {
		fmt.Printf("export %s %q -> index %d\n", e.Kind, e.Name, e.Index)
	}
	if lim, ok := m.MemoryLimits(); ok {
		fmt.Printf("memory limits: min %d pages", lim.Min)
		if lim.HasMax {
			fmt.Printf(", max %d pages", lim.Max)
		}
		fmt.Println()
	}

	if !disasm && !dumpIR {
		return nil
	}
	imported := m.NumImportedFuncs()
	for i := range m.Code {
		idx := uint32(imported + i)
		ft, err := m.FuncTypeAt(idx)
		if err != nil {
			return err
		}
		name := m.FuncNames[idx]
		if name == "" {
			name = fmt.Sprintf("func[%d]", idx)
		}
		fmt.Printf("\n%s %s  (%d locals)\n", name, ft, len(m.Code[i].Locals))
		if disasm {
			depth := 1
			for _, in := range m.Code[i].Body {
				switch in.Op {
				case wasm.OpEnd, wasm.OpElse:
					depth--
				}
				if depth < 0 {
					depth = 0
				}
				fmt.Printf("  %s%s\n", strings.Repeat("  ", depth), in)
				switch in.Op {
				case wasm.OpBlock, wasm.OpLoop, wasm.OpIf, wasm.OpElse:
					depth++
				}
			}
		}
		if dumpIR {
			if err := dumpFuncIR(m, i); err != nil {
				return err
			}
		}
	}
	return nil
}

// dumpFuncIR prints one function body's stack ops next to the register
// IR the optimizing engine runs.
func dumpFuncIR(m *wasm.Module, i int) error {
	before, after, err := compiled.NewWAVM().EmittedIR(m, i)
	if err != nil {
		return err
	}
	fmt.Printf("  %d stack ops -> %d dispatched ops\n", len(before.Code), len(after.Code))
	rir.DumpSideBySide(os.Stdout, before, after)
	return nil
}
