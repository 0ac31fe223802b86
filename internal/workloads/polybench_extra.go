package workloads

import (
	"math"

	"leapsandbounds/internal/wasm"
	g "leapsandbounds/internal/wasmgen"
)

// This file completes the PolyBench coverage with the remaining
// kernel shapes: doitgen (tensor contraction), gramschmidt (QR),
// heat-3d (3-D stencil), adi (alternating-direction implicit),
// floyd-warshall (all-pairs shortest paths, integer) and
// correlation (statistics with sqrt normalization).

func init() {
	register(Spec{Name: "doitgen", Suite: "polybench",
		Desc:    "multi-resolution tensor contraction",
		BuildFn: buildDoitgen})
	register(Spec{Name: "gramschmidt", Suite: "polybench",
		Desc:    "Gram-Schmidt QR decomposition",
		BuildFn: buildGramschmidt})
	register(Spec{Name: "heat-3d", Suite: "polybench",
		Desc:    "3-D heat equation stencil",
		BuildFn: buildHeat3d})
	register(Spec{Name: "adi", Suite: "polybench",
		Desc:    "alternating-direction implicit solver",
		BuildFn: buildAdi})
	register(Spec{Name: "floyd-warshall", Suite: "polybench",
		Desc:    "all-pairs shortest paths (integer)",
		BuildFn: buildFloydWarshall})
	register(Spec{Name: "correlation", Suite: "polybench",
		Desc:    "correlation matrix computation",
		BuildFn: buildCorrelation})
}

func buildDoitgen(c Class) (*wasm.Module, func() uint64) {
	nr := pick(c, 8, 20)
	nq := pick(c, 10, 24)
	np := pick(c, 12, 28)

	k := newKernel(wasm.F64)
	A := k.Lay.F64(uint32(nr * nq * np))
	C4 := k.Lay.F64(uint32(np * np))
	S := k.Lay.F64(uint32(np))
	f := k.F
	r, q, p, s := f.LocalI32("r"), f.LocalI32("q"), f.LocalI32("p"), f.LocalI32("s")
	acc := f.LocalF64("acc")

	m := k.Finish(
		g.For(r, g.I32(0), g.I32(nr),
			g.For(q, g.I32(0), g.I32(nq),
				g.For(p, g.I32(0), g.I32(np),
					A.Store(g.Idx3(g.Get(r), g.Get(q), g.Get(p), nq, np),
						fdiv(g.Add(g.Mul(g.Get(r), g.Get(q)), g.Get(p)), np, np)),
				),
			),
		),
		g.For(s, g.I32(0), g.I32(np),
			g.For(p, g.I32(0), g.I32(np),
				C4.Store(g.Idx2(g.Get(s), g.Get(p), np),
					fdiv(g.Mul(g.Get(s), g.Get(p)), np, np)),
			),
		),
		g.For(r, g.I32(0), g.I32(nr),
			g.For(q, g.I32(0), g.I32(nq),
				g.For(p, g.I32(0), g.I32(np),
					S.Store(g.Get(p), g.F64(0)),
					g.For(s, g.I32(0), g.I32(np),
						S.Store(g.Get(p), g.Add(S.Load(g.Get(p)),
							g.Mul(A.Load(g.Idx3(g.Get(r), g.Get(q), g.Get(s), nq, np)),
								C4.Load(g.Idx2(g.Get(s), g.Get(p), np))))),
					),
				),
				g.For(p, g.I32(0), g.I32(np),
					A.Store(g.Idx3(g.Get(r), g.Get(q), g.Get(p), nq, np), S.Load(g.Get(p))),
				),
			),
		),
		g.For(r, g.I32(0), g.I32(nr),
			g.For(q, g.I32(0), g.I32(nq),
				g.For(p, g.I32(0), g.I32(np),
					g.Set(acc, g.Add(g.Get(acc),
						A.Load(g.Idx3(g.Get(r), g.Get(q), g.Get(p), nq, np)))),
				),
			),
		),
		g.Return(g.Get(acc)),
	)

	native := func() uint64 {
		A := make([]float64, nr*nq*np)
		C4 := make([]float64, np*np)
		S := make([]float64, np)
		for r := int32(0); r < nr; r++ {
			for q := int32(0); q < nq; q++ {
				for p := int32(0); p < np; p++ {
					A[(r*nq+q)*np+p] = nfdiv(r*q+p, np, np)
				}
			}
		}
		for s := int32(0); s < np; s++ {
			for p := int32(0); p < np; p++ {
				C4[s*np+p] = nfdiv(s*p, np, np)
			}
		}
		for r := int32(0); r < nr; r++ {
			for q := int32(0); q < nq; q++ {
				for p := int32(0); p < np; p++ {
					S[p] = 0
					for s := int32(0); s < np; s++ {
						S[p] = S[p] + A[(r*nq+q)*np+s]*C4[s*np+p]
					}
				}
				for p := int32(0); p < np; p++ {
					A[(r*nq+q)*np+p] = S[p]
				}
			}
		}
		acc := 0.0
		for r := int32(0); r < nr; r++ {
			for q := int32(0); q < nq; q++ {
				for p := int32(0); p < np; p++ {
					acc = acc + A[(r*nq+q)*np+p]
				}
			}
		}
		return f64bits(acc)
	}
	return m, native
}

func buildGramschmidt(c Class) (*wasm.Module, func() uint64) {
	mdim := pick(c, 24, 60) // rows
	n := pick(c, 20, 52)    // columns

	k := newKernel(wasm.F64)
	A := k.Lay.F64(uint32(mdim * n))
	R := k.Lay.F64(uint32(n * n))
	Q := k.Lay.F64(uint32(mdim * n))
	f := k.F
	i, j, kk := f.LocalI32("i"), f.LocalI32("j"), f.LocalI32("k")
	nrm := f.LocalF64("nrm")
	acc := f.LocalF64("acc")

	m := k.Finish(
		// Init keeps columns independent: dominant diagonal band.
		g.For(i, g.I32(0), g.I32(mdim),
			g.For(j, g.I32(0), g.I32(n),
				A.Store(g.Idx2(g.Get(i), g.Get(j), n),
					g.Add(fdiv(g.Add(g.Mul(g.Get(i), g.Get(j)), g.I32(1)), mdim, mdim),
						g.Sel(g.Eq(g.Rem(g.Get(i), g.I32(n)), g.Get(j)), g.F64(10.0), g.F64(0.0)))),
			),
		),
		g.For(kk, g.I32(0), g.I32(n),
			g.Set(nrm, g.F64(0)),
			g.For(i, g.I32(0), g.I32(mdim),
				g.Set(nrm, g.Add(g.Get(nrm),
					g.Mul(A.Load(g.Idx2(g.Get(i), g.Get(kk), n)),
						A.Load(g.Idx2(g.Get(i), g.Get(kk), n))))),
			),
			R.Store(g.Idx2(g.Get(kk), g.Get(kk), n), g.Sqrt(g.Get(nrm))),
			g.For(i, g.I32(0), g.I32(mdim),
				Q.Store(g.Idx2(g.Get(i), g.Get(kk), n),
					g.Div(A.Load(g.Idx2(g.Get(i), g.Get(kk), n)),
						R.Load(g.Idx2(g.Get(kk), g.Get(kk), n)))),
			),
			g.For(j, g.Add(g.Get(kk), g.I32(1)), g.I32(n),
				R.Store(g.Idx2(g.Get(kk), g.Get(j), n), g.F64(0)),
				g.For(i, g.I32(0), g.I32(mdim),
					R.Store(g.Idx2(g.Get(kk), g.Get(j), n),
						g.Add(R.Load(g.Idx2(g.Get(kk), g.Get(j), n)),
							g.Mul(Q.Load(g.Idx2(g.Get(i), g.Get(kk), n)),
								A.Load(g.Idx2(g.Get(i), g.Get(j), n))))),
				),
				g.For(i, g.I32(0), g.I32(mdim),
					A.Store(g.Idx2(g.Get(i), g.Get(j), n),
						g.Sub(A.Load(g.Idx2(g.Get(i), g.Get(j), n)),
							g.Mul(Q.Load(g.Idx2(g.Get(i), g.Get(kk), n)),
								R.Load(g.Idx2(g.Get(kk), g.Get(j), n))))),
				),
			),
		),
		g.For(i, g.I32(0), g.I32(n),
			g.For(j, g.I32(0), g.I32(n),
				g.Set(acc, g.Add(g.Get(acc), R.Load(g.Idx2(g.Get(i), g.Get(j), n)))),
			),
		),
		g.For(i, g.I32(0), g.I32(mdim),
			g.For(j, g.I32(0), g.I32(n),
				g.Set(acc, g.Add(g.Get(acc), Q.Load(g.Idx2(g.Get(i), g.Get(j), n)))),
			),
		),
		g.Return(g.Get(acc)),
	)

	native := func() uint64 {
		A := make([]float64, mdim*n)
		R := make([]float64, n*n)
		Q := make([]float64, mdim*n)
		for i := int32(0); i < mdim; i++ {
			for j := int32(0); j < n; j++ {
				v := nfdiv(i*j+1, mdim, mdim)
				if i%n == j {
					v += 10.0
				}
				A[i*n+j] = v
			}
		}
		for k := int32(0); k < n; k++ {
			nrm := 0.0
			for i := int32(0); i < mdim; i++ {
				nrm = nrm + A[i*n+k]*A[i*n+k]
			}
			R[k*n+k] = math.Sqrt(nrm)
			for i := int32(0); i < mdim; i++ {
				Q[i*n+k] = A[i*n+k] / R[k*n+k]
			}
			for j := k + 1; j < n; j++ {
				R[k*n+j] = 0
				for i := int32(0); i < mdim; i++ {
					R[k*n+j] = R[k*n+j] + Q[i*n+k]*A[i*n+j]
				}
				for i := int32(0); i < mdim; i++ {
					A[i*n+j] = A[i*n+j] - Q[i*n+k]*R[k*n+j]
				}
			}
		}
		acc := 0.0
		for i := int32(0); i < n; i++ {
			for j := int32(0); j < n; j++ {
				acc = acc + R[i*n+j]
			}
		}
		for i := int32(0); i < mdim; i++ {
			for j := int32(0); j < n; j++ {
				acc = acc + Q[i*n+j]
			}
		}
		return f64bits(acc)
	}
	return m, native
}

func buildHeat3d(c Class) (*wasm.Module, func() uint64) {
	n := pick(c, 10, 24)
	tsteps := pick(c, 4, 16)

	k := newKernel(wasm.F64)
	A := k.Lay.F64(uint32(n * n * n))
	B := k.Lay.F64(uint32(n * n * n))
	f := k.F
	i, j, kk, t := f.LocalI32("i"), f.LocalI32("j"), f.LocalI32("k"), f.LocalI32("t")
	acc := f.LocalF64("acc")

	at := func(arr g.Arr, di, dj, dk int32) g.Expr {
		ie, je, ke := g.Get(i), g.Get(j), g.Get(kk)
		if di != 0 {
			ie = g.Add(g.Get(i), g.I32(di))
		}
		if dj != 0 {
			je = g.Add(g.Get(j), g.I32(dj))
		}
		if dk != 0 {
			ke = g.Add(g.Get(kk), g.I32(dk))
		}
		return arr.Load(g.Idx3(ie, je, ke, n, n))
	}
	sweep := func(src, dst g.Arr) g.Stmt {
		return g.For(i, g.I32(1), g.I32(n-1),
			g.For(j, g.I32(1), g.I32(n-1),
				g.For(kk, g.I32(1), g.I32(n-1),
					dst.Store(g.Idx3(g.Get(i), g.Get(j), g.Get(kk), n, n),
						g.Add(g.Add(g.Add(
							g.Mul(g.F64(0.125), g.Sub(g.Add(at(src, 1, 0, 0), at(src, -1, 0, 0)),
								g.Mul(g.F64(2.0), at(src, 0, 0, 0)))),
							g.Mul(g.F64(0.125), g.Sub(g.Add(at(src, 0, 1, 0), at(src, 0, -1, 0)),
								g.Mul(g.F64(2.0), at(src, 0, 0, 0))))),
							g.Mul(g.F64(0.125), g.Sub(g.Add(at(src, 0, 0, 1), at(src, 0, 0, -1)),
								g.Mul(g.F64(2.0), at(src, 0, 0, 0))))),
							at(src, 0, 0, 0))),
				),
			),
		)
	}

	m := k.Finish(
		g.For(i, g.I32(0), g.I32(n),
			g.For(j, g.I32(0), g.I32(n),
				g.For(kk, g.I32(0), g.I32(n),
					A.Store(g.Idx3(g.Get(i), g.Get(j), g.Get(kk), n, n),
						g.Div(g.F64FromI32(g.Add(g.Add(g.Get(i), g.Get(j)), g.Sub(g.I32(n), g.Get(kk)))),
							g.F64(float64(10*n)))),
					B.Store(g.Idx3(g.Get(i), g.Get(j), g.Get(kk), n, n),
						g.Div(g.F64FromI32(g.Add(g.Add(g.Get(i), g.Get(j)), g.Sub(g.I32(n), g.Get(kk)))),
							g.F64(float64(10*n)))),
				),
			),
		),
		g.For(t, g.I32(0), g.I32(tsteps),
			sweep(A, B),
			sweep(B, A),
		),
		g.For(i, g.I32(0), g.I32(n),
			g.For(j, g.I32(0), g.I32(n),
				g.For(kk, g.I32(0), g.I32(n),
					g.Set(acc, g.Add(g.Get(acc),
						A.Load(g.Idx3(g.Get(i), g.Get(j), g.Get(kk), n, n)))),
				),
			),
		),
		g.Return(g.Get(acc)),
	)

	native := func() uint64 {
		A := make([]float64, n*n*n)
		B := make([]float64, n*n*n)
		idx := func(i, j, k int32) int32 { return (i*n+j)*n + k }
		for i := int32(0); i < n; i++ {
			for j := int32(0); j < n; j++ {
				for k := int32(0); k < n; k++ {
					v := float64(i+j+(n-k)) / float64(10*n)
					A[idx(i, j, k)] = v
					B[idx(i, j, k)] = v
				}
			}
		}
		sweep := func(src, dst []float64) {
			for i := int32(1); i < n-1; i++ {
				for j := int32(1); j < n-1; j++ {
					for k := int32(1); k < n-1; k++ {
						dst[idx(i, j, k)] = ((0.125*(src[idx(i+1, j, k)]+src[idx(i-1, j, k)]-2.0*src[idx(i, j, k)]) +
							0.125*(src[idx(i, j+1, k)]+src[idx(i, j-1, k)]-2.0*src[idx(i, j, k)])) +
							0.125*(src[idx(i, j, k+1)]+src[idx(i, j, k-1)]-2.0*src[idx(i, j, k)])) +
							src[idx(i, j, k)]
					}
				}
			}
		}
		for t := int32(0); t < tsteps; t++ {
			sweep(A, B)
			sweep(B, A)
		}
		acc := 0.0
		for i := range A {
			acc = acc + A[i]
		}
		return f64bits(acc)
	}
	return m, native
}

func buildAdi(c Class) (*wasm.Module, func() uint64) {
	n := pick(c, 16, 40)
	tsteps := pick(c, 2, 8)

	// PolyBench adi constants for DX = 1/N, DT = 1/TSTEPS.
	fn := float64(n)
	dx := 1.0 / fn
	dt := 1.0 / float64(tsteps)
	b1, b2 := 2.0, 1.0
	mul1 := b1 * dt / (dx * dx)
	mul2 := b2 * dt / (dx * dx)
	ca := -mul1 / 2.0
	cb := 1.0 + mul1
	ccc := ca
	cd := -mul2 / 2.0
	ce := 1.0 + mul2
	cf := cd

	k := newKernel(wasm.F64)
	U := k.Lay.F64(uint32(n * n))
	V := k.Lay.F64(uint32(n * n))
	P := k.Lay.F64(uint32(n * n))
	Q := k.Lay.F64(uint32(n * n))
	f := k.F
	i, j, t := f.LocalI32("i"), f.LocalI32("j"), f.LocalI32("t")
	acc := f.LocalF64("acc")

	jm1 := func() g.Expr { return g.Sub(g.Get(j), g.I32(1)) }
	jp1 := func() g.Expr { return g.Add(g.Get(j), g.I32(1)) }
	im1 := func() g.Expr { return g.Sub(g.Get(i), g.I32(1)) }
	ip1 := func() g.Expr { return g.Add(g.Get(i), g.I32(1)) }

	m := k.Finish(
		g.For(i, g.I32(0), g.I32(n),
			g.For(j, g.I32(0), g.I32(n),
				U.Store(g.Idx2(g.Get(i), g.Get(j), n),
					g.Div(g.F64FromI32(g.Add(g.Get(i), g.Sub(g.I32(n), g.Get(j)))), g.F64(fn))),
			),
		),
		g.For(t, g.I32(1), g.I32(tsteps+1),
			// Column sweep: solve along j for each i, writing v.
			g.For(i, g.I32(1), g.I32(n-1),
				V.Store(g.Idx2(g.I32(0), g.Get(i), n), g.F64(1.0)),
				P.Store(g.Idx2(g.Get(i), g.I32(0), n), g.F64(0.0)),
				Q.Store(g.Idx2(g.Get(i), g.I32(0), n), V.Load(g.Idx2(g.I32(0), g.Get(i), n))),
				g.For(j, g.I32(1), g.I32(n-1),
					P.Store(g.Idx2(g.Get(i), g.Get(j), n),
						g.Div(g.F64(-ccc),
							g.Add(g.Mul(g.F64(ca), P.Load(g.Idx2(g.Get(i), jm1(), n))), g.F64(cb)))),
					Q.Store(g.Idx2(g.Get(i), g.Get(j), n),
						g.Div(
							g.Sub(g.Sub(g.Add(
								g.Mul(g.F64(-cd), U.Load(g.Idx2(g.Get(j), im1(), n))),
								g.Mul(g.F64(1.0+2.0*cd), U.Load(g.Idx2(g.Get(j), g.Get(i), n)))),
								g.Mul(g.F64(cf), U.Load(g.Idx2(g.Get(j), ip1(), n)))),
								g.Mul(g.F64(ca), Q.Load(g.Idx2(g.Get(i), jm1(), n)))),
							g.Add(g.Mul(g.F64(ca), P.Load(g.Idx2(g.Get(i), jm1(), n))), g.F64(cb)))),
				),
				V.Store(g.Idx2(g.I32(n-1), g.Get(i), n), g.F64(1.0)),
				g.ForDown(j, g.I32(n-2), g.I32(1),
					V.Store(g.Idx2(g.Get(j), g.Get(i), n),
						g.Add(g.Mul(P.Load(g.Idx2(g.Get(i), g.Get(j), n)),
							V.Load(g.Idx2(jp1(), g.Get(i), n))),
							Q.Load(g.Idx2(g.Get(i), g.Get(j), n)))),
				),
			),
			// Row sweep: solve along j for each i, writing u.
			g.For(i, g.I32(1), g.I32(n-1),
				U.Store(g.Idx2(g.Get(i), g.I32(0), n), g.F64(1.0)),
				P.Store(g.Idx2(g.Get(i), g.I32(0), n), g.F64(0.0)),
				Q.Store(g.Idx2(g.Get(i), g.I32(0), n), U.Load(g.Idx2(g.Get(i), g.I32(0), n))),
				g.For(j, g.I32(1), g.I32(n-1),
					P.Store(g.Idx2(g.Get(i), g.Get(j), n),
						g.Div(g.F64(-cf),
							g.Add(g.Mul(g.F64(cd), P.Load(g.Idx2(g.Get(i), jm1(), n))), g.F64(ce)))),
					Q.Store(g.Idx2(g.Get(i), g.Get(j), n),
						g.Div(
							g.Sub(g.Sub(g.Add(
								g.Mul(g.F64(-ca), V.Load(g.Idx2(im1(), g.Get(j), n))),
								g.Mul(g.F64(1.0+2.0*ca), V.Load(g.Idx2(g.Get(i), g.Get(j), n)))),
								g.Mul(g.F64(ccc), V.Load(g.Idx2(ip1(), g.Get(j), n)))),
								g.Mul(g.F64(cd), Q.Load(g.Idx2(g.Get(i), jm1(), n)))),
							g.Add(g.Mul(g.F64(cd), P.Load(g.Idx2(g.Get(i), jm1(), n))), g.F64(ce)))),
				),
				U.Store(g.Idx2(g.Get(i), g.I32(n-1), n), g.F64(1.0)),
				g.ForDown(j, g.I32(n-2), g.I32(1),
					U.Store(g.Idx2(g.Get(i), g.Get(j), n),
						g.Add(g.Mul(P.Load(g.Idx2(g.Get(i), g.Get(j), n)),
							U.Load(g.Idx2(g.Get(i), jp1(), n))),
							Q.Load(g.Idx2(g.Get(i), g.Get(j), n)))),
				),
			),
		),
		g.For(i, g.I32(0), g.I32(n),
			g.For(j, g.I32(0), g.I32(n),
				g.Set(acc, g.Add(g.Get(acc), U.Load(g.Idx2(g.Get(i), g.Get(j), n)))),
			),
		),
		g.Return(g.Get(acc)),
	)

	native := func() uint64 {
		U := make([]float64, n*n)
		V := make([]float64, n*n)
		P := make([]float64, n*n)
		Q := make([]float64, n*n)
		for i := int32(0); i < n; i++ {
			for j := int32(0); j < n; j++ {
				U[i*n+j] = float64(i+(n-j)) / fn
			}
		}
		for t := int32(1); t <= tsteps; t++ {
			for i := int32(1); i < n-1; i++ {
				V[0*n+i] = 1.0
				P[i*n+0] = 0.0
				Q[i*n+0] = V[0*n+i]
				for j := int32(1); j < n-1; j++ {
					P[i*n+j] = -ccc / (ca*P[i*n+j-1] + cb)
					Q[i*n+j] = (((-cd*U[j*n+i-1] + (1.0+2.0*cd)*U[j*n+i]) - cf*U[j*n+i+1]) -
						ca*Q[i*n+j-1]) / (ca*P[i*n+j-1] + cb)
				}
				V[(n-1)*n+i] = 1.0
				for j := n - 2; j >= 1; j-- {
					V[j*n+i] = P[i*n+j]*V[(j+1)*n+i] + Q[i*n+j]
				}
			}
			for i := int32(1); i < n-1; i++ {
				U[i*n+0] = 1.0
				P[i*n+0] = 0.0
				Q[i*n+0] = U[i*n+0]
				for j := int32(1); j < n-1; j++ {
					P[i*n+j] = -cf / (cd*P[i*n+j-1] + ce)
					Q[i*n+j] = (((-ca*V[(i-1)*n+j] + (1.0+2.0*ca)*V[i*n+j]) - ccc*V[(i+1)*n+j]) -
						cd*Q[i*n+j-1]) / (cd*P[i*n+j-1] + ce)
				}
				U[i*n+n-1] = 1.0
				for j := n - 2; j >= 1; j-- {
					U[i*n+j] = P[i*n+j]*U[i*n+j+1] + Q[i*n+j]
				}
			}
		}
		acc := 0.0
		for i := int32(0); i < n; i++ {
			for j := int32(0); j < n; j++ {
				acc = acc + U[i*n+j]
			}
		}
		return f64bits(acc)
	}
	return m, native
}

func buildFloydWarshall(c Class) (*wasm.Module, func() uint64) {
	n := pick(c, 32, 96)

	k := newKernel(wasm.I64)
	Path := k.Lay.I32(uint32(n * n))
	f := k.F
	i, j, kk := f.LocalI32("i"), f.LocalI32("j"), f.LocalI32("k")
	chk := f.LocalI64("chk")

	m := k.Finish(
		// PolyBench init: path[i][j] = i*j%7+1, with "infinite"
		// (999) entries on a deterministic pattern.
		g.For(i, g.I32(0), g.I32(n),
			g.For(j, g.I32(0), g.I32(n),
				Path.Store(g.Idx2(g.Get(i), g.Get(j), n),
					g.Add(g.Rem(g.Mul(g.Get(i), g.Get(j)), g.I32(7)), g.I32(1))),
				g.If(g.Or(g.Eq(g.Rem(g.Add(g.Get(i), g.Get(j)), g.I32(13)), g.I32(0)),
					g.Or(g.Eq(g.Rem(g.Get(i), g.I32(7)), g.I32(0)),
						g.Eq(g.Rem(g.Get(j), g.I32(7)), g.I32(0)))),
					Path.Store(g.Idx2(g.Get(i), g.Get(j), n), g.I32(999)),
				),
			),
		),
		g.For(kk, g.I32(0), g.I32(n),
			g.For(i, g.I32(0), g.I32(n),
				g.For(j, g.I32(0), g.I32(n),
					Path.Store(g.Idx2(g.Get(i), g.Get(j), n),
						g.Sel(
							g.Lt(Path.Load(g.Idx2(g.Get(i), g.Get(j), n)),
								g.Add(Path.Load(g.Idx2(g.Get(i), g.Get(kk), n)),
									Path.Load(g.Idx2(g.Get(kk), g.Get(j), n)))),
							Path.Load(g.Idx2(g.Get(i), g.Get(j), n)),
							g.Add(Path.Load(g.Idx2(g.Get(i), g.Get(kk), n)),
								Path.Load(g.Idx2(g.Get(kk), g.Get(j), n))))),
				),
			),
		),
		g.For(i, g.I32(0), g.I32(n),
			g.For(j, g.I32(0), g.I32(n),
				g.Set(chk, g.Add(g.Mul(g.Get(chk), g.I64(31)),
					g.I64FromI32(Path.Load(g.Idx2(g.Get(i), g.Get(j), n))))),
			),
		),
		g.Return(g.Get(chk)),
	)

	native := func() uint64 {
		Path := make([]int32, n*n)
		for i := int32(0); i < n; i++ {
			for j := int32(0); j < n; j++ {
				Path[i*n+j] = i*j%7 + 1
				if (i+j)%13 == 0 || i%7 == 0 || j%7 == 0 {
					Path[i*n+j] = 999
				}
			}
		}
		for k := int32(0); k < n; k++ {
			for i := int32(0); i < n; i++ {
				for j := int32(0); j < n; j++ {
					sum := Path[i*n+k] + Path[k*n+j]
					if Path[i*n+j] >= sum {
						Path[i*n+j] = sum
					}
				}
			}
		}
		chk := int64(0)
		for i := int32(0); i < n; i++ {
			for j := int32(0); j < n; j++ {
				chk = chk*31 + int64(Path[i*n+j])
			}
		}
		return uint64(chk)
	}
	return m, native
}

func buildCorrelation(c Class) (*wasm.Module, func() uint64) {
	mdim := pick(c, 20, 56) // variables
	n := pick(c, 26, 64)    // observations
	const eps = 0.1

	k := newKernel(wasm.F64)
	D := k.Lay.F64(uint32(n * mdim))
	Corr := k.Lay.F64(uint32(mdim * mdim))
	Mean := k.Lay.F64(uint32(mdim))
	Std := k.Lay.F64(uint32(mdim))
	f := k.F
	i, j, kk := f.LocalI32("i"), f.LocalI32("j"), f.LocalI32("k")
	acc := f.LocalF64("acc")

	fn := float64(n)
	m := k.Finish(
		g.For(i, g.I32(0), g.I32(n),
			g.For(j, g.I32(0), g.I32(mdim),
				D.Store(g.Idx2(g.Get(i), g.Get(j), mdim),
					g.Add(g.Div(g.F64FromI32(g.Mul(g.Get(i), g.Get(j))), g.F64(float64(mdim))),
						g.F64FromI32(g.Get(i)))),
			),
		),
		g.For(j, g.I32(0), g.I32(mdim),
			Mean.Store(g.Get(j), g.F64(0)),
			g.For(i, g.I32(0), g.I32(n),
				Mean.Store(g.Get(j), g.Add(Mean.Load(g.Get(j)),
					D.Load(g.Idx2(g.Get(i), g.Get(j), mdim)))),
			),
			Mean.Store(g.Get(j), g.Div(Mean.Load(g.Get(j)), g.F64(fn))),
		),
		g.For(j, g.I32(0), g.I32(mdim),
			Std.Store(g.Get(j), g.F64(0)),
			g.For(i, g.I32(0), g.I32(n),
				Std.Store(g.Get(j), g.Add(Std.Load(g.Get(j)),
					g.Mul(g.Sub(D.Load(g.Idx2(g.Get(i), g.Get(j), mdim)), Mean.Load(g.Get(j))),
						g.Sub(D.Load(g.Idx2(g.Get(i), g.Get(j), mdim)), Mean.Load(g.Get(j)))))),
			),
			Std.Store(g.Get(j), g.Sqrt(g.Div(Std.Load(g.Get(j)), g.F64(fn)))),
			// Guard tiny variances, as the reference does.
			Std.Store(g.Get(j), g.Sel(g.Le(Std.Load(g.Get(j)), g.F64(eps)),
				g.F64(1.0), Std.Load(g.Get(j)))),
		),
		// Center and scale.
		g.For(i, g.I32(0), g.I32(n),
			g.For(j, g.I32(0), g.I32(mdim),
				D.Store(g.Idx2(g.Get(i), g.Get(j), mdim),
					g.Div(g.Sub(D.Load(g.Idx2(g.Get(i), g.Get(j), mdim)), Mean.Load(g.Get(j))),
						g.Mul(g.Sqrt(g.F64(fn)), Std.Load(g.Get(j))))),
			),
		),
		g.For(i, g.I32(0), g.I32(mdim-1),
			Corr.Store(g.Idx2(g.Get(i), g.Get(i), mdim), g.F64(1.0)),
			g.For(j, g.Add(g.Get(i), g.I32(1)), g.I32(mdim),
				Corr.Store(g.Idx2(g.Get(i), g.Get(j), mdim), g.F64(0)),
				g.For(kk, g.I32(0), g.I32(n),
					Corr.Store(g.Idx2(g.Get(i), g.Get(j), mdim),
						g.Add(Corr.Load(g.Idx2(g.Get(i), g.Get(j), mdim)),
							g.Mul(D.Load(g.Idx2(g.Get(kk), g.Get(i), mdim)),
								D.Load(g.Idx2(g.Get(kk), g.Get(j), mdim))))),
				),
				Corr.Store(g.Idx2(g.Get(j), g.Get(i), mdim),
					Corr.Load(g.Idx2(g.Get(i), g.Get(j), mdim))),
			),
		),
		Corr.Store(g.Idx2(g.I32(mdim-1), g.I32(mdim-1), mdim), g.F64(1.0)),
		g.For(i, g.I32(0), g.I32(mdim),
			g.For(j, g.I32(0), g.I32(mdim),
				g.Set(acc, g.Add(g.Get(acc), Corr.Load(g.Idx2(g.Get(i), g.Get(j), mdim)))),
			),
		),
		g.Return(g.Get(acc)),
	)

	native := func() uint64 {
		D := make([]float64, n*mdim)
		Corr := make([]float64, mdim*mdim)
		Mean := make([]float64, mdim)
		Std := make([]float64, mdim)
		for i := int32(0); i < n; i++ {
			for j := int32(0); j < mdim; j++ {
				D[i*mdim+j] = float64(i*j)/float64(mdim) + float64(i)
			}
		}
		for j := int32(0); j < mdim; j++ {
			Mean[j] = 0
			for i := int32(0); i < n; i++ {
				Mean[j] = Mean[j] + D[i*mdim+j]
			}
			Mean[j] = Mean[j] / fn
		}
		for j := int32(0); j < mdim; j++ {
			Std[j] = 0
			for i := int32(0); i < n; i++ {
				Std[j] = Std[j] + (D[i*mdim+j]-Mean[j])*(D[i*mdim+j]-Mean[j])
			}
			Std[j] = math.Sqrt(Std[j] / fn)
			if Std[j] <= eps {
				Std[j] = 1.0
			}
		}
		for i := int32(0); i < n; i++ {
			for j := int32(0); j < mdim; j++ {
				D[i*mdim+j] = (D[i*mdim+j] - Mean[j]) / (math.Sqrt(fn) * Std[j])
			}
		}
		for i := int32(0); i < mdim-1; i++ {
			Corr[i*mdim+i] = 1.0
			for j := i + 1; j < mdim; j++ {
				Corr[i*mdim+j] = 0
				for k := int32(0); k < n; k++ {
					Corr[i*mdim+j] = Corr[i*mdim+j] + D[k*mdim+i]*D[k*mdim+j]
				}
				Corr[j*mdim+i] = Corr[i*mdim+j]
			}
		}
		Corr[(mdim-1)*mdim+(mdim-1)] = 1.0
		acc := 0.0
		for i := int32(0); i < mdim; i++ {
			for j := int32(0); j < mdim; j++ {
				acc = acc + Corr[i*mdim+j]
			}
		}
		return f64bits(acc)
	}
	return m, native
}
