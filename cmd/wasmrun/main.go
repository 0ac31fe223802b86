// Command wasmrun executes a WebAssembly (WASI) binary:
//
//	wasmrun [-engine wavm] [-strategy mprotect] [-invoke name] \
//	        [-profile x86_64] program.wasm [args...]
//
// By default it calls the module's _start export with the WASI
// preview-1 subset wired to the process stdout/stderr; -invoke calls
// a named export instead and prints its result.
package main

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"os"

	"leapsandbounds/internal/core"
	"leapsandbounds/internal/harness"
	"leapsandbounds/internal/isa"
	"leapsandbounds/internal/mem"
	"leapsandbounds/internal/validate"
	"leapsandbounds/internal/wasi"
)

func main() {
	var (
		engineN  = flag.String("engine", "wavm", "engine: wavm, wasmtime, v8, wasm3")
		strategy = flag.String("strategy", "mprotect", "bounds-checking strategy")
		profileN = flag.String("profile", "x86_64", "hardware profile")
		invoke   = flag.String("invoke", "", "call this export instead of _start")
	)
	flag.Parse()
	if flag.NArg() < 1 {
		flag.Usage()
		os.Exit(2)
	}

	if err := run(*engineN, *strategy, *profileN, *invoke, flag.Arg(0), flag.Args()); err != nil {
		var exit *wasi.ExitError
		if errors.As(err, &exit) {
			os.Exit(int(exit.Code))
		}
		fmt.Fprintln(os.Stderr, "wasmrun:", err)
		os.Exit(1)
	}
}

func run(engineN, strategy, profileN, invoke, path string, args []string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	m, err := validate.Decode(data)
	if err != nil {
		return err
	}

	strat, err := mem.ParseStrategy(strategy)
	if err != nil {
		return err
	}
	prof := isa.ByName(profileN)
	if prof == nil {
		return fmt.Errorf("unknown profile %q", profileN)
	}
	eng, closeEng, err := harness.NewEngine(engineN)
	if err != nil {
		return err
	}
	defer closeEng()

	cm, err := eng.Compile(m)
	if err != nil {
		return err
	}
	env := wasi.NewEnv(os.Stdout, os.Stderr)
	env.Args = args
	inst, err := cm.Instantiate(
		core.Config{Strategy: strat, Profile: prof},
		env.Imports(),
	)
	if err != nil {
		return err
	}
	defer inst.Close()

	entry := "_start"
	if invoke != "" {
		entry = invoke
	}
	res, err := inst.Invoke(entry)
	if err != nil {
		return err
	}
	if invoke != "" && len(res) > 0 {
		fmt.Printf("%s() = %d (raw %#x, f64 %v)\n",
			entry, int64(res[0]), res[0], math.Float64frombits(res[0]))
	}
	return nil
}
