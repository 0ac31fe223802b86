package workloads

import (
	"math"

	"leapsandbounds/internal/wasm"
	g "leapsandbounds/internal/wasmgen"
)

// This file implements the floating-point mini-SPEC analogs:
//
//	508.namd  Lennard-Jones pairwise force loop with a cutoff
//	          (namd's dominant nonbonded kernel shape)
//	519.lbm   D2Q9 lattice-Boltzmann stream-and-collide steps
//	544.nab   pairwise generalized-Born-style energy with sqrt-heavy
//	          inner loop (nab's molecular mechanics profile)

func init() {
	register(Spec{Name: "508.namd", Suite: "spec",
		Desc:    "Lennard-Jones pairwise forces with cutoff",
		BuildFn: buildNamd})
	register(Spec{Name: "519.lbm", Suite: "spec",
		Desc:    "D2Q9 lattice-Boltzmann stream/collide",
		BuildFn: buildLbm})
	register(Spec{Name: "544.nab", Suite: "spec",
		Desc:    "generalized-Born pairwise energy",
		BuildFn: buildNab})
}

func buildNamd(c Class) (*wasm.Module, func() uint64) {
	n := pick(c, 96, 512)
	const cutoff2 = 6.25 // (2.5 sigma)^2

	k := newKernel(wasm.F64)
	PX := k.Lay.F64(uint32(n))
	PY := k.Lay.F64(uint32(n))
	PZ := k.Lay.F64(uint32(n))
	FX := k.Lay.F64(uint32(n))
	FY := k.Lay.F64(uint32(n))
	FZ := k.Lay.F64(uint32(n))
	f := k.F
	i, j := f.LocalI32("i"), f.LocalI32("j")
	st := f.LocalI64("st")
	dx, dy, dz := f.LocalF64("dx"), f.LocalF64("dy"), f.LocalF64("dz")
	r2 := f.LocalF64("r2")
	inv2 := f.LocalF64("inv2")
	inv6 := f.LocalF64("inv6")
	force := f.LocalF64("force")
	acc := f.LocalF64("acc")

	// frand(shift) produces a deterministic coordinate in [0, 8).
	frand := func(shift int64) g.Expr {
		return g.Div(
			g.F64FromI64(g.And(g.ShrU(g.Get(st), g.I64(shift)), g.I64(0xfffff))),
			g.F64(131072.0))
	}

	m := k.Finish(
		g.Set(st, g.I64(424242)),
		g.For(i, g.I32(0), g.I32(n),
			g.Set(st, g.Add(g.Mul(g.Get(st), g.I64(lcgMul)), g.I64(lcgAdd))),
			PX.Store(g.Get(i), frand(5)),
			PY.Store(g.Get(i), frand(25)),
			PZ.Store(g.Get(i), frand(43)),
			FX.Store(g.Get(i), g.F64(0)),
			FY.Store(g.Get(i), g.F64(0)),
			FZ.Store(g.Get(i), g.F64(0)),
		),
		g.For(i, g.I32(0), g.I32(n),
			g.For(j, g.Add(g.Get(i), g.I32(1)), g.I32(n),
				g.Set(dx, g.Sub(PX.Load(g.Get(i)), PX.Load(g.Get(j)))),
				g.Set(dy, g.Sub(PY.Load(g.Get(i)), PY.Load(g.Get(j)))),
				g.Set(dz, g.Sub(PZ.Load(g.Get(i)), PZ.Load(g.Get(j)))),
				g.Set(r2, g.Add(g.Add(g.Mul(g.Get(dx), g.Get(dx)), g.Mul(g.Get(dy), g.Get(dy))),
					g.Mul(g.Get(dz), g.Get(dz)))),
				g.If(g.And(g.Lt(g.Get(r2), g.F64(cutoff2)), g.Gt(g.Get(r2), g.F64(1e-6))),
					g.Set(inv2, g.Div(g.F64(1.0), g.Get(r2))),
					g.Set(inv6, g.Mul(g.Mul(g.Get(inv2), g.Get(inv2)), g.Get(inv2))),
					// LJ force magnitude / r: 24 eps (2 inv12 - inv6) inv2
					g.Set(force, g.Mul(g.Mul(g.F64(24.0),
						g.Sub(g.Mul(g.Mul(g.F64(2.0), g.Get(inv6)), g.Get(inv6)), g.Get(inv6))),
						g.Get(inv2))),
					FX.Store(g.Get(i), g.Add(FX.Load(g.Get(i)), g.Mul(g.Get(force), g.Get(dx)))),
					FY.Store(g.Get(i), g.Add(FY.Load(g.Get(i)), g.Mul(g.Get(force), g.Get(dy)))),
					FZ.Store(g.Get(i), g.Add(FZ.Load(g.Get(i)), g.Mul(g.Get(force), g.Get(dz)))),
					FX.Store(g.Get(j), g.Sub(FX.Load(g.Get(j)), g.Mul(g.Get(force), g.Get(dx)))),
					FY.Store(g.Get(j), g.Sub(FY.Load(g.Get(j)), g.Mul(g.Get(force), g.Get(dy)))),
					FZ.Store(g.Get(j), g.Sub(FZ.Load(g.Get(j)), g.Mul(g.Get(force), g.Get(dz)))),
				),
			),
		),
		g.For(i, g.I32(0), g.I32(n),
			g.Set(acc, g.Add(g.Get(acc),
				g.Add(g.Add(FX.Load(g.Get(i)), FY.Load(g.Get(i))), FZ.Load(g.Get(i))))),
		),
		g.Return(g.Get(acc)),
	)

	native := func() uint64 {
		PX := make([]float64, n)
		PY := make([]float64, n)
		PZ := make([]float64, n)
		FX := make([]float64, n)
		FY := make([]float64, n)
		FZ := make([]float64, n)
		st := int64(424242)
		fr := func(shift uint) float64 {
			return float64(uint64(st)>>shift&0xfffff) / 131072.0
		}
		for i := int32(0); i < n; i++ {
			st = st*lcgMul + lcgAdd
			PX[i] = fr(5)
			PY[i] = fr(25)
			PZ[i] = fr(43)
		}
		for i := int32(0); i < n; i++ {
			for j := i + 1; j < n; j++ {
				dx := PX[i] - PX[j]
				dy := PY[i] - PY[j]
				dz := PZ[i] - PZ[j]
				r2 := dx*dx + dy*dy + dz*dz
				if r2 < cutoff2 && r2 > 1e-6 {
					inv2 := 1.0 / r2
					inv6 := inv2 * inv2 * inv2
					force := (24.0 * ((2.0*inv6)*inv6 - inv6)) * inv2
					FX[i] = FX[i] + force*dx
					FY[i] = FY[i] + force*dy
					FZ[i] = FZ[i] + force*dz
					FX[j] = FX[j] - force*dx
					FY[j] = FY[j] - force*dy
					FZ[j] = FZ[j] - force*dz
				}
			}
		}
		acc := 0.0
		for i := int32(0); i < n; i++ {
			acc = acc + ((FX[i] + FY[i]) + FZ[i])
		}
		return f64bits(acc)
	}
	return m, native
}

// D2Q9 lattice directions and weights.
var (
	lbmEx = [9]int32{0, 1, 0, -1, 0, 1, -1, -1, 1}
	lbmEy = [9]int32{0, 0, 1, 0, -1, 1, 1, -1, -1}
	lbmW  = [9]float64{4.0 / 9, 1.0 / 9, 1.0 / 9, 1.0 / 9, 1.0 / 9,
		1.0 / 36, 1.0 / 36, 1.0 / 36, 1.0 / 36}
)

func buildLbm(c Class) (*wasm.Module, func() uint64) {
	nx := pick(c, 16, 48)
	ny := pick(c, 16, 48)
	steps := pick(c, 4, 20)
	const omega = 1.2
	cells := nx * ny

	k := newKernel(wasm.F64)
	// f[dir][cell] and a post-stream copy.
	var F, F2 [9]g.Arr
	for d := 0; d < 9; d++ {
		F[d] = k.Lay.F64(uint32(cells))
	}
	for d := 0; d < 9; d++ {
		F2[d] = k.Lay.F64(uint32(cells))
	}
	f := k.F
	x, y, t := f.LocalI32("x"), f.LocalI32("y"), f.LocalI32("t")
	cell := f.LocalI32("cell")
	sx, sy := f.LocalI32("sx"), f.LocalI32("sy")
	rho := f.LocalF64("rho")
	ux, uy := f.LocalF64("ux"), f.LocalF64("uy")
	eu := f.LocalF64("eu")
	feq := f.LocalF64("feq")
	usqr := f.LocalF64("usqr")
	acc := f.LocalF64("acc")

	var initStmts []g.Stmt
	for d := 0; d < 9; d++ {
		d := d
		initStmts = append(initStmts,
			g.For(cell, g.I32(0), g.I32(cells),
				F[d].Store(g.Get(cell),
					g.Add(g.F64(lbmW[d]),
						g.Mul(g.F64(0.001*float64(d+1)),
							g.Div(g.F64FromI32(g.Get(cell)), g.F64(float64(cells)))))),
			))
	}

	// Streaming: F2[d][x,y] = F[d][x-ex, y-ey] with periodic wrap.
	var streamStmts []g.Stmt
	for d := 0; d < 9; d++ {
		d := d
		streamStmts = append(streamStmts,
			g.For(x, g.I32(0), g.I32(nx),
				g.For(y, g.I32(0), g.I32(ny),
					g.Set(sx, g.Rem(g.Add(g.Sub(g.Get(x), g.I32(lbmEx[d])), g.I32(nx)), g.I32(nx))),
					g.Set(sy, g.Rem(g.Add(g.Sub(g.Get(y), g.I32(lbmEy[d])), g.I32(ny)), g.I32(ny))),
					F2[d].Store(g.Idx2(g.Get(x), g.Get(y), ny),
						F[d].Load(g.Idx2(g.Get(sx), g.Get(sy), ny))),
				),
			))
	}

	// Collision at each cell.
	collide := func() []g.Stmt {
		stmts := []g.Stmt{
			g.Set(rho, g.F64(0)),
			g.Set(ux, g.F64(0)),
			g.Set(uy, g.F64(0)),
		}
		for d := 0; d < 9; d++ {
			d := d
			stmts = append(stmts,
				g.Set(rho, g.Add(g.Get(rho), F2[d].Load(g.Get(cell)))))
			if lbmEx[d] != 0 {
				stmts = append(stmts, g.Set(ux, g.Add(g.Get(ux),
					g.Mul(g.F64(float64(lbmEx[d])), F2[d].Load(g.Get(cell))))))
			}
			if lbmEy[d] != 0 {
				stmts = append(stmts, g.Set(uy, g.Add(g.Get(uy),
					g.Mul(g.F64(float64(lbmEy[d])), F2[d].Load(g.Get(cell))))))
			}
		}
		stmts = append(stmts,
			g.Set(ux, g.Div(g.Get(ux), g.Get(rho))),
			g.Set(uy, g.Div(g.Get(uy), g.Get(rho))),
			g.Set(usqr, g.Mul(g.F64(1.5),
				g.Add(g.Mul(g.Get(ux), g.Get(ux)), g.Mul(g.Get(uy), g.Get(uy))))),
		)
		for d := 0; d < 9; d++ {
			d := d
			stmts = append(stmts,
				g.Set(eu, g.Add(
					g.Mul(g.F64(float64(lbmEx[d])), g.Get(ux)),
					g.Mul(g.F64(float64(lbmEy[d])), g.Get(uy)))),
				g.Set(feq, g.Mul(g.Mul(g.F64(lbmW[d]), g.Get(rho)),
					g.Sub(g.Add(g.Add(g.F64(1.0), g.Mul(g.F64(3.0), g.Get(eu))),
						g.Mul(g.Mul(g.F64(4.5), g.Get(eu)), g.Get(eu))),
						g.Get(usqr)))),
				F[d].Store(g.Get(cell),
					g.Add(F2[d].Load(g.Get(cell)),
						g.Mul(g.F64(omega), g.Sub(g.Get(feq), F2[d].Load(g.Get(cell)))))),
			)
		}
		return stmts
	}

	var sumStmts []g.Stmt
	for d := 0; d < 9; d++ {
		d := d
		sumStmts = append(sumStmts,
			g.For(cell, g.I32(0), g.I32(cells),
				g.Set(acc, g.Add(g.Get(acc), F[d].Load(g.Get(cell)))),
			))
	}

	body := append([]g.Stmt{}, initStmts...)
	body = append(body,
		g.For(t, g.I32(0), g.I32(steps),
			g.Seq(streamStmts...),
			g.For(cell, g.I32(0), g.I32(cells), collide()...),
		),
	)
	body = append(body, sumStmts...)
	body = append(body, g.Return(g.Get(acc)))
	m := k.Finish(body...)

	native := func() uint64 {
		F := make([][]float64, 9)
		F2 := make([][]float64, 9)
		for d := 0; d < 9; d++ {
			F[d] = make([]float64, cells)
			F2[d] = make([]float64, cells)
			for c := int32(0); c < cells; c++ {
				F[d][c] = lbmW[d] + 0.001*float64(d+1)*(float64(c)/float64(cells))
			}
		}
		for t := int32(0); t < steps; t++ {
			for d := 0; d < 9; d++ {
				for x := int32(0); x < nx; x++ {
					for y := int32(0); y < ny; y++ {
						sx := (x - lbmEx[d] + nx) % nx
						sy := (y - lbmEy[d] + ny) % ny
						F2[d][x*ny+y] = F[d][sx*ny+sy]
					}
				}
			}
			for cell := int32(0); cell < cells; cell++ {
				rho, ux, uy := 0.0, 0.0, 0.0
				for d := 0; d < 9; d++ {
					rho = rho + F2[d][cell]
					if lbmEx[d] != 0 {
						ux = ux + float64(lbmEx[d])*F2[d][cell]
					}
					if lbmEy[d] != 0 {
						uy = uy + float64(lbmEy[d])*F2[d][cell]
					}
				}
				ux = ux / rho
				uy = uy / rho
				usqr := 1.5 * (ux*ux + uy*uy)
				for d := 0; d < 9; d++ {
					eu := float64(lbmEx[d])*ux + float64(lbmEy[d])*uy
					feq := (lbmW[d] * rho) * (((1.0 + 3.0*eu) + (4.5*eu)*eu) - usqr)
					F[d][cell] = F2[d][cell] + omega*(feq-F2[d][cell])
				}
			}
		}
		acc := 0.0
		for d := 0; d < 9; d++ {
			for c := int32(0); c < cells; c++ {
				acc = acc + F[d][c]
			}
		}
		return f64bits(acc)
	}
	return m, native
}

func buildNab(c Class) (*wasm.Module, func() uint64) {
	n := pick(c, 80, 400)

	k := newKernel(wasm.F64)
	PX := k.Lay.F64(uint32(n))
	PY := k.Lay.F64(uint32(n))
	PZ := k.Lay.F64(uint32(n))
	Q := k.Lay.F64(uint32(n))
	R := k.Lay.F64(uint32(n)) // Born radii
	f := k.F
	i, j := f.LocalI32("i"), f.LocalI32("j")
	st := f.LocalI64("st")
	dx, dy, dz := f.LocalF64("dx"), f.LocalF64("dy"), f.LocalF64("dz")
	r2 := f.LocalF64("r2")
	fgb := f.LocalF64("fgb")
	acc := f.LocalF64("acc")

	frand := func(shift int64) g.Expr {
		return g.Div(
			g.F64FromI64(g.And(g.ShrU(g.Get(st), g.I64(shift)), g.I64(0xffff))),
			g.F64(4096.0))
	}

	m := k.Finish(
		g.Set(st, g.I64(777777)),
		g.For(i, g.I32(0), g.I32(n),
			g.Set(st, g.Add(g.Mul(g.Get(st), g.I64(lcgMul)), g.I64(lcgAdd))),
			PX.Store(g.Get(i), frand(3)),
			PY.Store(g.Get(i), frand(21)),
			PZ.Store(g.Get(i), frand(39)),
			Q.Store(g.Get(i), g.Sub(
				g.Div(g.F64FromI64(g.And(g.Get(st), g.I64(255))), g.F64(128.0)),
				g.F64(1.0))),
			R.Store(g.Get(i), g.Add(g.F64(1.0),
				g.Div(g.F64FromI64(g.And(g.ShrU(g.Get(st), g.I64(50)), g.I64(127))), g.F64(256.0)))),
		),
		// Generalized-Born-style pairwise energy:
		// E += q_i q_j / sqrt(r2 + Ri Rj (1 + r2/(4 Ri Rj))^-1)
		// The inner expression keeps nab's sqrt/div-heavy profile.
		g.For(i, g.I32(0), g.I32(n),
			g.For(j, g.Add(g.Get(i), g.I32(1)), g.I32(n),
				g.Set(dx, g.Sub(PX.Load(g.Get(i)), PX.Load(g.Get(j)))),
				g.Set(dy, g.Sub(PY.Load(g.Get(i)), PY.Load(g.Get(j)))),
				g.Set(dz, g.Sub(PZ.Load(g.Get(i)), PZ.Load(g.Get(j)))),
				g.Set(r2, g.Add(g.Add(g.Mul(g.Get(dx), g.Get(dx)), g.Mul(g.Get(dy), g.Get(dy))),
					g.Mul(g.Get(dz), g.Get(dz)))),
				g.Set(fgb, g.Mul(R.Load(g.Get(i)), R.Load(g.Get(j)))),
				g.Set(fgb, g.Add(g.Get(r2),
					g.Div(g.Get(fgb),
						g.Add(g.F64(1.0), g.Div(g.Get(r2), g.Mul(g.F64(4.0), g.Get(fgb))))))),
				g.Set(acc, g.Add(g.Get(acc),
					g.Div(g.Mul(Q.Load(g.Get(i)), Q.Load(g.Get(j))),
						g.Sqrt(g.Get(fgb))))),
			),
		),
		g.Return(g.Get(acc)),
	)

	native := func() uint64 {
		PX := make([]float64, n)
		PY := make([]float64, n)
		PZ := make([]float64, n)
		Q := make([]float64, n)
		R := make([]float64, n)
		st := int64(777777)
		fr := func(shift uint) float64 {
			return float64(uint64(st)>>shift&0xffff) / 4096.0
		}
		for i := int32(0); i < n; i++ {
			st = st*lcgMul + lcgAdd
			PX[i] = fr(3)
			PY[i] = fr(21)
			PZ[i] = fr(39)
			Q[i] = float64(uint64(st)&255)/128.0 - 1.0
			R[i] = 1.0 + float64(uint64(st)>>50&127)/256.0
		}
		acc := 0.0
		for i := int32(0); i < n; i++ {
			for j := i + 1; j < n; j++ {
				dx := PX[i] - PX[j]
				dy := PY[i] - PY[j]
				dz := PZ[i] - PZ[j]
				r2 := dx*dx + dy*dy + dz*dz
				fgb := R[i] * R[j]
				fgb = r2 + fgb/(1.0+r2/(4.0*fgb))
				acc = acc + Q[i]*Q[j]/math.Sqrt(fgb)
			}
		}
		return f64bits(acc)
	}
	return m, native
}
