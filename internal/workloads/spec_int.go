package workloads

import (
	"math/bits"

	"leapsandbounds/internal/wasm"
	g "leapsandbounds/internal/wasmgen"
)

// This file implements the integer-dominated mini-SPEC analogs:
//
//	505.mcf        network shortest-path relaxation over a synthetic
//	               sparse graph (pointer-chasing, data-dependent
//	               branches — mcf's dominant profile)
//	531.deepsjeng  alpha-beta negamax over a synthetic game tree
//	               (deep recursion, branchy integer code)
//	557.xz         LZ77 compression with hash-chain match finding
//	               over synthetic data (byte loads, hashing)
//
// The paper runs the real SPEC binaries in the Train configuration;
// SPEC sources are not redistributable, so each analog reproduces
// the benchmark's dominant kernel shape on synthetic inputs.

func init() {
	register(Spec{Name: "505.mcf", Suite: "spec",
		Desc:    "shortest-path relaxation over a sparse network",
		BuildFn: buildMcf})
	register(Spec{Name: "531.deepsjeng", Suite: "spec",
		Desc:    "alpha-beta game-tree search",
		BuildFn: buildDeepsjeng})
	register(Spec{Name: "557.xz", Suite: "spec",
		Desc:    "LZ77 compression with hash chains",
		BuildFn: buildXz})
}

// lcg constants shared by the synthetic input generators.
const (
	lcgMul = 6364136223846793005
	lcgAdd = 1442695040888963407
)

func buildMcf(c Class) (*wasm.Module, func() uint64) {
	nodes := pick(c, 256, 4096)
	degree := int32(8)
	rounds := pick(c, 6, 24)
	edges := nodes * degree
	const inf = int64(1) << 40

	k := newKernel(wasm.I64)
	To := k.Lay.I32(uint32(edges))
	W := k.Lay.I64(uint32(edges))
	Dist := k.Lay.I64(uint32(nodes))
	f := k.F
	i, j := f.LocalI32("i"), f.LocalI32("j")
	e := f.LocalI32("e")
	state := f.LocalI64("state")
	nd := f.LocalI64("nd")
	chk := f.LocalI64("chk")

	m := k.Finish(
		// Synthesize the network: node i's j-th edge goes to a
		// pseudo-random node with a pseudo-random weight in [1, 256].
		g.Set(state, g.I64(12345)),
		g.For(i, g.I32(0), g.I32(nodes),
			g.For(j, g.I32(0), g.I32(degree),
				g.Set(state, g.Add(g.Mul(g.Get(state), g.I64(lcgMul)), g.I64(lcgAdd))),
				g.Set(e, g.Add(g.Mul(g.Get(i), g.I32(degree)), g.Get(j))),
				To.Store(g.Get(e),
					g.I32FromI64(g.And(g.ShrU(g.Get(state), g.I64(33)), g.I64(int64(nodes-1))))),
				W.Store(g.Get(e),
					g.Add(g.And(g.ShrU(g.Get(state), g.I64(13)), g.I64(255)), g.I64(1))),
			),
		),
		g.For(i, g.I32(0), g.I32(nodes),
			Dist.Store(g.Get(i), g.I64(inf)),
		),
		Dist.Store(g.I32(0), g.I64(0)),
		// Bellman-Ford style relaxation rounds.
		g.For(j, g.I32(0), g.I32(rounds),
			g.For(i, g.I32(0), g.I32(nodes),
				g.If(g.Lt(Dist.Load(g.Get(i)), g.I64(inf)),
					g.For(e, g.Mul(g.Get(i), g.I32(degree)),
						g.Mul(g.Add(g.Get(i), g.I32(1)), g.I32(degree)),
						g.Set(nd, g.Add(Dist.Load(g.Get(i)), W.Load(g.Get(e)))),
						g.If(g.Lt(g.Get(nd), Dist.Load(To.Load(g.Get(e)))),
							Dist.Store(To.Load(g.Get(e)), g.Get(nd)),
						),
					),
				),
			),
		),
		g.For(i, g.I32(0), g.I32(nodes),
			g.Set(chk, g.Add(g.Mul(g.Get(chk), g.I64(31)), Dist.Load(g.Get(i)))),
		),
		g.Return(g.Get(chk)),
	)

	native := func() uint64 {
		To := make([]int32, edges)
		W := make([]int64, edges)
		Dist := make([]int64, nodes)
		state := int64(12345)
		for i := int32(0); i < nodes; i++ {
			for j := int32(0); j < degree; j++ {
				state = state*lcgMul + lcgAdd
				e := i*degree + j
				To[e] = int32(uint64(state) >> 33 & uint64(nodes-1))
				W[e] = int64(uint64(state)>>13&255) + 1
			}
		}
		for i := int32(0); i < nodes; i++ {
			Dist[i] = inf
		}
		Dist[0] = 0
		for r := int32(0); r < rounds; r++ {
			for i := int32(0); i < nodes; i++ {
				if Dist[i] < inf {
					for e := i * degree; e < (i+1)*degree; e++ {
						nd := Dist[i] + W[e]
						if nd < Dist[To[e]] {
							Dist[To[e]] = nd
						}
					}
				}
			}
		}
		chk := int64(0)
		for i := int32(0); i < nodes; i++ {
			chk = chk*31 + Dist[i]
		}
		return uint64(chk)
	}
	return m, native
}

func buildDeepsjeng(c Class) (*wasm.Module, func() uint64) {
	depth := pick(c, 5, 8)
	const moves = 5
	const winScore = 20000

	mb := g.NewModule()
	mb.Memory(1, 2)

	// search(state i64, depth i32, alpha i32, beta i32) -> i32
	search := mb.Func("search", wasm.I32)
	st := search.ParamI64("state")
	dp := search.ParamI32("depth")
	alpha := search.ParamI32("alpha")
	beta := search.ParamI32("beta")
	mv := search.LocalI32("mv")
	child := search.LocalI64("child")
	score := search.LocalI32("score")

	// eval: a cheap popcount-based static evaluation.
	evalExpr := g.Sub(
		g.Mul(g.I32FromI64(g.Popcnt(st7(g.Get(st)))), g.I32(16)),
		g.I32FromI64(g.And(g.Get(st), g.I64(255))),
	)

	search.Body(
		g.If(g.Eq(g.Get(dp), g.I32(0)),
			g.Return(evalExpr),
		),
		g.For(mv, g.I32(0), g.I32(moves),
			// child = mix(state, move)
			g.Set(child, g.Mul(
				g.Xor(g.Get(st), g.I64FromI32(g.Add(g.Mul(g.Get(mv), g.I32(0x9e3b)), g.I32(1)))),
				g.I64(lcgMul))),
			g.Set(child, g.Xor(g.Get(child), g.ShrU(g.Get(child), g.I64(29)))),
			// score = -search(child, depth-1, -beta, -alpha)
			g.Set(score, g.Sub(g.I32(0),
				g.Call(search, g.Get(child), g.Sub(g.Get(dp), g.I32(1)),
					g.Sub(g.I32(0), g.Get(beta)), g.Sub(g.I32(0), g.Get(alpha))))),
			g.If(g.Gt(g.Get(score), g.Get(alpha)),
				g.Set(alpha, g.Get(score)),
			),
			g.If(g.Ge(g.Get(alpha), g.Get(beta)),
				g.Break(), // beta cutoff
			),
		),
		g.Return(g.Get(alpha)),
	)

	run := mb.Func(Entry, wasm.I64)
	i := run.LocalI32("i")
	acc := run.LocalI64("acc")
	root := run.LocalI64("root")
	run.Body(
		g.Set(root, g.I64(0x123456789abcdef)),
		g.For(i, g.I32(0), g.I32(4),
			g.Set(root, g.Add(g.Mul(g.Get(root), g.I64(lcgMul)), g.I64(lcgAdd))),
			g.Set(acc, g.Add(g.Mul(g.Get(acc), g.I64(1000003)),
				g.I64FromI32(g.Call(search, g.Get(root), g.I32(depth),
					g.I32(-winScore), g.I32(winScore))))),
		),
		g.Return(g.Get(acc)),
	)
	mb.Export(Entry, run)
	m, err := mb.Module()
	if err != nil {
		panic(err)
	}

	var nsearch func(state int64, depth, alpha, beta int32) int32
	nsearch = func(state int64, depth, alpha, beta int32) int32 {
		if depth == 0 {
			return int32(bits.OnesCount64(uint64(state)&0x7f7f7f7f7f7f7f7f))*16 -
				int32(state&255)
		}
		for mv := int32(0); mv < moves; mv++ {
			child := (state ^ int64(mv*0x9e3b+1)) * lcgMul
			child = child ^ int64(uint64(child)>>29)
			score := -nsearch(child, depth-1, -beta, -alpha)
			if score > alpha {
				alpha = score
			}
			if alpha >= beta {
				break
			}
		}
		return alpha
	}
	native := func() uint64 {
		root := int64(0x123456789abcdef)
		acc := int64(0)
		for i := 0; i < 4; i++ {
			root = root*lcgMul + lcgAdd
			acc = acc*1000003 + int64(nsearch(root, depth, -winScore, winScore))
		}
		return uint64(acc)
	}
	return m, native
}

// st7 masks a state to the "board occupancy" bits used by the
// evaluation (matches the 0x7f7f... mask in the native twin).
func st7(e g.Expr) g.Expr {
	return g.And(e, g.I64(0x7f7f7f7f7f7f7f7f))
}

func buildXz(c Class) (*wasm.Module, func() uint64) {
	inputLen := pick(c, 1<<12, 1<<16)
	const (
		hashBits = 12
		hashSize = 1 << hashBits
		minMatch = 4
		maxMatch = 64
		maxChain = 16
	)

	k := newKernel(wasm.I64)
	In := k.Lay.U8(uint32(inputLen))
	Out := k.Lay.U8(uint32(inputLen + inputLen/2))
	Head := k.Lay.I32(hashSize)
	Prev := k.Lay.I32(uint32(inputLen))
	f := k.F
	i := f.LocalI32("i")
	pos := f.LocalI32("pos")
	outp := f.LocalI32("outp")
	h := f.LocalI32("h")
	cand := f.LocalI32("cand")
	chain := f.LocalI32("chain")
	length := f.LocalI32("len")
	best := f.LocalI32("best")
	bestPos := f.LocalI32("bestPos")
	state := f.LocalI64("state")
	chk := f.LocalI64("chk")

	hashExpr := func(p g.Expr) g.Expr {
		// hash of 4 bytes at p (via an unaligned 32-bit load).
		return g.And(
			g.ShrU(g.Mul(g.LoadI32(p, In.Base()), g.I32(-1640531527)), // 2654435769
				g.I32(32-hashBits)),
			g.I32(hashSize-1))
	}

	m := k.Finish(
		// Synthetic compressible input: textured bytes with repeats.
		g.Set(state, g.I64(98765)),
		g.For(i, g.I32(0), g.I32(inputLen),
			g.Set(state, g.Add(g.Mul(g.Get(state), g.I64(lcgMul)), g.I64(lcgAdd))),
			g.IfElse(g.Lt(g.Rem(g.Get(i), g.I32(512)), g.I32(384)),
				[]g.Stmt{In.Store(g.Get(i), g.Rem(g.Get(i), g.I32(29)))},
				[]g.Stmt{In.Store(g.Get(i),
					g.I32FromI64(g.And(g.ShrU(g.Get(state), g.I64(41)), g.I64(63))))},
			),
		),
		g.For(i, g.I32(0), g.I32(hashSize),
			Head.Store(g.Get(i), g.I32(-1)),
		),
		// Greedy LZ77 parse with hash chains.
		g.Set(pos, g.I32(0)),
		g.Set(outp, g.I32(0)),
		g.While(g.Lt(g.Get(pos), g.I32(inputLen-int32(maxMatch))),
			g.Set(h, hashExpr(g.Get(pos))),
			g.Set(best, g.I32(0)),
			g.Set(cand, Head.Load(g.Get(h))),
			g.Set(chain, g.I32(0)),
			g.While(g.And(g.Ge(g.Get(cand), g.I32(0)), g.Lt(g.Get(chain), g.I32(maxChain))),
				// match length between cand and pos
				g.Set(length, g.I32(0)),
				g.While(g.And(
					g.Lt(g.Get(length), g.I32(maxMatch)),
					g.Eq(In.Load(g.Add(g.Get(cand), g.Get(length))),
						In.Load(g.Add(g.Get(pos), g.Get(length))))),
					g.Set(length, g.Add(g.Get(length), g.I32(1))),
				),
				g.If(g.Gt(g.Get(length), g.Get(best)),
					g.Set(best, g.Get(length)),
					g.Set(bestPos, g.Get(cand)),
				),
				g.Set(cand, Prev.Load(g.Get(cand))),
				g.Set(chain, g.Add(g.Get(chain), g.I32(1))),
			),
			// Insert pos into the chain.
			Prev.Store(g.Get(pos), Head.Load(g.Get(h))),
			Head.Store(g.Get(h), g.Get(pos)),
			g.IfElse(g.Ge(g.Get(best), g.I32(minMatch)),
				[]g.Stmt{
					// Emit a match token: 0xFF, distance16, len8.
					Out.Store(g.Get(outp), g.I32(255)),
					Out.Store(g.Add(g.Get(outp), g.I32(1)),
						g.And(g.Sub(g.Get(pos), g.Get(bestPos)), g.I32(255))),
					Out.Store(g.Add(g.Get(outp), g.I32(2)),
						g.And(g.ShrU(g.Sub(g.Get(pos), g.Get(bestPos)), g.I32(8)), g.I32(255))),
					Out.Store(g.Add(g.Get(outp), g.I32(3)), g.Get(best)),
					g.Set(outp, g.Add(g.Get(outp), g.I32(4))),
					g.Set(pos, g.Add(g.Get(pos), g.Get(best))),
				},
				[]g.Stmt{
					// Literal.
					Out.Store(g.Get(outp), In.Load(g.Get(pos))),
					g.Set(outp, g.Add(g.Get(outp), g.I32(1))),
					g.Set(pos, g.Add(g.Get(pos), g.I32(1))),
				},
			),
		),
		// Adler-style checksum over the compressed stream, mixed with
		// the compressed size.
		g.Set(chk, g.I64(1)),
		g.For(i, g.I32(0), g.Get(outp),
			g.Set(chk, g.Rem(
				g.Add(g.Mul(g.Get(chk), g.I64(65521)), g.I64FromI32U(Out.Load(g.Get(i)))),
				g.I64(4294967291))),
		),
		g.Return(g.Add(g.Mul(g.Get(chk), g.I64(1<<20)), g.I64FromI32(g.Get(outp)))),
	)

	native := func() uint64 {
		In := make([]byte, inputLen)
		Out := make([]byte, inputLen+inputLen/2)
		Head := make([]int32, hashSize)
		Prev := make([]int32, inputLen)
		state := int64(98765)
		for i := int32(0); i < inputLen; i++ {
			state = state*lcgMul + lcgAdd
			if i%512 < 384 {
				In[i] = byte(i % 29)
			} else {
				In[i] = byte(uint64(state) >> 41 & 63)
			}
		}
		for i := range Head {
			Head[i] = -1
		}
		hash4 := func(p int32) int32 {
			v := uint32(In[p]) | uint32(In[p+1])<<8 | uint32(In[p+2])<<16 | uint32(In[p+3])<<24
			return int32(v * 2654435769 >> (32 - hashBits) & (hashSize - 1))
		}
		pos, outp := int32(0), int32(0)
		for pos < inputLen-maxMatch {
			h := hash4(pos)
			best, bestPos := int32(0), int32(0)
			cand := Head[h]
			for chain := int32(0); cand >= 0 && chain < maxChain; chain++ {
				length := int32(0)
				for length < maxMatch && In[cand+length] == In[pos+length] {
					length++
				}
				if length > best {
					best = length
					bestPos = cand
				}
				cand = Prev[cand]
			}
			Prev[pos] = Head[h]
			Head[h] = pos
			if best >= minMatch {
				d := pos - bestPos
				Out[outp] = 255
				Out[outp+1] = byte(d & 255)
				Out[outp+2] = byte(d >> 8 & 255)
				Out[outp+3] = byte(best)
				outp += 4
				pos += best
			} else {
				Out[outp] = In[pos]
				outp++
				pos++
			}
		}
		chk := int64(1)
		for i := int32(0); i < outp; i++ {
			chk = (chk*65521 + int64(uint32(Out[i]))) % 4294967291
		}
		return uint64(chk*(1<<20) + int64(outp))
	}
	return m, native
}
