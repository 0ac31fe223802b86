package workloads

import (
	"leapsandbounds/internal/wasm"
	g "leapsandbounds/internal/wasmgen"
)

// This file implements the matrix-vector PolyBench kernels: atax,
// bicg, mvt, gemver and covariance.

func init() {
	register(Spec{Name: "atax", Suite: "polybench",
		Desc:    "y = A^T (A x)",
		BuildFn: buildAtax})
	register(Spec{Name: "bicg", Suite: "polybench",
		Desc:    "BiCG sub-kernel: s = A^T r, q = A p",
		BuildFn: buildBicg})
	register(Spec{Name: "mvt", Suite: "polybench",
		Desc:    "x1 += A y1, x2 += A^T y2",
		BuildFn: buildMvt})
	register(Spec{Name: "gemver", Suite: "polybench",
		Desc:    "vector multiplications and additions",
		BuildFn: buildGemver})
	register(Spec{Name: "covariance", Suite: "polybench",
		Desc:    "covariance matrix computation",
		BuildFn: buildCovariance})
}

func buildAtax(c Class) (*wasm.Module, func() uint64) {
	mdim := pick(c, 64, 380)
	n := pick(c, 72, 420)

	k := newKernel(wasm.F64)
	A := k.Lay.F64(uint32(mdim * n))
	X := k.Lay.F64(uint32(n))
	Y := k.Lay.F64(uint32(n))
	T := k.Lay.F64(uint32(mdim))
	f := k.F
	i, j := f.LocalI32("i"), f.LocalI32("j")
	acc := f.LocalF64("acc")

	m := k.Finish(
		g.For(i, g.I32(0), g.I32(n),
			X.Store(g.Get(i), g.Add(g.F64(1.0),
				g.Div(g.F64FromI32(g.Get(i)), g.F64(float64(n))))),
		),
		g.For(i, g.I32(0), g.I32(mdim),
			g.For(j, g.I32(0), g.I32(n),
				A.Store(g.Idx2(g.Get(i), g.Get(j), n),
					fdiv(g.Add(g.Mul(g.Get(i), g.Get(j)), g.I32(1)), n, n)),
			),
		),
		g.For(i, g.I32(0), g.I32(n),
			Y.Store(g.Get(i), g.F64(0)),
		),
		g.For(i, g.I32(0), g.I32(mdim),
			T.Store(g.Get(i), g.F64(0)),
			g.For(j, g.I32(0), g.I32(n),
				T.Store(g.Get(i), g.Add(T.Load(g.Get(i)),
					g.Mul(A.Load(g.Idx2(g.Get(i), g.Get(j), n)), X.Load(g.Get(j))))),
			),
			g.For(j, g.I32(0), g.I32(n),
				Y.Store(g.Get(j), g.Add(Y.Load(g.Get(j)),
					g.Mul(A.Load(g.Idx2(g.Get(i), g.Get(j), n)), T.Load(g.Get(i))))),
			),
		),
		g.For(i, g.I32(0), g.I32(n),
			g.Set(acc, g.Add(g.Get(acc), Y.Load(g.Get(i)))),
		),
		g.Return(g.Get(acc)),
	)

	native := func() uint64 {
		A := make([]float64, mdim*n)
		X := make([]float64, n)
		Y := make([]float64, n)
		T := make([]float64, mdim)
		for i := int32(0); i < n; i++ {
			X[i] = 1.0 + float64(i)/float64(n)
		}
		for i := int32(0); i < mdim; i++ {
			for j := int32(0); j < n; j++ {
				A[i*n+j] = nfdiv(i*j+1, n, n)
			}
		}
		for i := int32(0); i < mdim; i++ {
			T[i] = 0
			for j := int32(0); j < n; j++ {
				T[i] = T[i] + A[i*n+j]*X[j]
			}
			for j := int32(0); j < n; j++ {
				Y[j] = Y[j] + A[i*n+j]*T[i]
			}
		}
		acc := 0.0
		for i := int32(0); i < n; i++ {
			acc = acc + Y[i]
		}
		return f64bits(acc)
	}
	return m, native
}

func buildBicg(c Class) (*wasm.Module, func() uint64) {
	mdim := pick(c, 64, 380)
	n := pick(c, 72, 420)

	k := newKernel(wasm.F64)
	A := k.Lay.F64(uint32(n * mdim))
	S := k.Lay.F64(uint32(mdim))
	Q := k.Lay.F64(uint32(n))
	P := k.Lay.F64(uint32(mdim))
	R := k.Lay.F64(uint32(n))
	f := k.F
	i, j := f.LocalI32("i"), f.LocalI32("j")
	acc := f.LocalF64("acc")

	m := k.Finish(
		g.For(i, g.I32(0), g.I32(mdim),
			P.Store(g.Get(i), fdiv(g.Get(i), mdim, mdim)),
			S.Store(g.Get(i), g.F64(0)),
		),
		g.For(i, g.I32(0), g.I32(n),
			R.Store(g.Get(i), fdiv(g.Get(i), n, n)),
			Q.Store(g.Get(i), g.F64(0)),
			g.For(j, g.I32(0), g.I32(mdim),
				A.Store(g.Idx2(g.Get(i), g.Get(j), mdim),
					fdiv(g.Add(g.Mul(g.Get(i), g.Get(j)), g.I32(1)), n, n)),
			),
		),
		g.For(i, g.I32(0), g.I32(n),
			g.For(j, g.I32(0), g.I32(mdim),
				S.Store(g.Get(j), g.Add(S.Load(g.Get(j)),
					g.Mul(R.Load(g.Get(i)), A.Load(g.Idx2(g.Get(i), g.Get(j), mdim))))),
				Q.Store(g.Get(i), g.Add(Q.Load(g.Get(i)),
					g.Mul(A.Load(g.Idx2(g.Get(i), g.Get(j), mdim)), P.Load(g.Get(j))))),
			),
		),
		g.For(i, g.I32(0), g.I32(mdim),
			g.Set(acc, g.Add(g.Get(acc), S.Load(g.Get(i)))),
		),
		g.For(i, g.I32(0), g.I32(n),
			g.Set(acc, g.Add(g.Get(acc), Q.Load(g.Get(i)))),
		),
		g.Return(g.Get(acc)),
	)

	native := func() uint64 {
		A := make([]float64, n*mdim)
		S := make([]float64, mdim)
		Q := make([]float64, n)
		P := make([]float64, mdim)
		R := make([]float64, n)
		for i := int32(0); i < mdim; i++ {
			P[i] = nfdiv(i, mdim, mdim)
		}
		for i := int32(0); i < n; i++ {
			R[i] = nfdiv(i, n, n)
			for j := int32(0); j < mdim; j++ {
				A[i*mdim+j] = nfdiv(i*j+1, n, n)
			}
		}
		for i := int32(0); i < n; i++ {
			for j := int32(0); j < mdim; j++ {
				S[j] = S[j] + R[i]*A[i*mdim+j]
				Q[i] = Q[i] + A[i*mdim+j]*P[j]
			}
		}
		acc := 0.0
		for i := int32(0); i < mdim; i++ {
			acc = acc + S[i]
		}
		for i := int32(0); i < n; i++ {
			acc = acc + Q[i]
		}
		return f64bits(acc)
	}
	return m, native
}

func buildMvt(c Class) (*wasm.Module, func() uint64) {
	n := pick(c, 72, 400)

	k := newKernel(wasm.F64)
	A := k.Lay.F64(uint32(n * n))
	X1 := k.Lay.F64(uint32(n))
	X2 := k.Lay.F64(uint32(n))
	Y1 := k.Lay.F64(uint32(n))
	Y2 := k.Lay.F64(uint32(n))
	f := k.F
	i, j := f.LocalI32("i"), f.LocalI32("j")
	acc := f.LocalF64("acc")

	m := k.Finish(
		g.For(i, g.I32(0), g.I32(n),
			X1.Store(g.Get(i), fdiv(g.Get(i), n, n)),
			X2.Store(g.Get(i), fdiv(g.Add(g.Get(i), g.I32(1)), n, n)),
			Y1.Store(g.Get(i), fdiv(g.Add(g.Get(i), g.I32(3)), n, n)),
			Y2.Store(g.Get(i), fdiv(g.Add(g.Get(i), g.I32(4)), n, n)),
			g.For(j, g.I32(0), g.I32(n),
				A.Store(g.Idx2(g.Get(i), g.Get(j), n),
					fdiv(g.Mul(g.Get(i), g.Get(j)), n, n)),
			),
		),
		g.For(i, g.I32(0), g.I32(n),
			g.For(j, g.I32(0), g.I32(n),
				X1.Store(g.Get(i), g.Add(X1.Load(g.Get(i)),
					g.Mul(A.Load(g.Idx2(g.Get(i), g.Get(j), n)), Y1.Load(g.Get(j))))),
			),
		),
		g.For(i, g.I32(0), g.I32(n),
			g.For(j, g.I32(0), g.I32(n),
				X2.Store(g.Get(i), g.Add(X2.Load(g.Get(i)),
					g.Mul(A.Load(g.Idx2(g.Get(j), g.Get(i), n)), Y2.Load(g.Get(j))))),
			),
		),
		g.For(i, g.I32(0), g.I32(n),
			g.Set(acc, g.Add(g.Get(acc), g.Add(X1.Load(g.Get(i)), X2.Load(g.Get(i))))),
		),
		g.Return(g.Get(acc)),
	)

	native := func() uint64 {
		A := make([]float64, n*n)
		X1 := make([]float64, n)
		X2 := make([]float64, n)
		Y1 := make([]float64, n)
		Y2 := make([]float64, n)
		for i := int32(0); i < n; i++ {
			X1[i] = nfdiv(i, n, n)
			X2[i] = nfdiv(i+1, n, n)
			Y1[i] = nfdiv(i+3, n, n)
			Y2[i] = nfdiv(i+4, n, n)
			for j := int32(0); j < n; j++ {
				A[i*n+j] = nfdiv(i*j, n, n)
			}
		}
		for i := int32(0); i < n; i++ {
			for j := int32(0); j < n; j++ {
				X1[i] = X1[i] + A[i*n+j]*Y1[j]
			}
		}
		for i := int32(0); i < n; i++ {
			for j := int32(0); j < n; j++ {
				X2[i] = X2[i] + A[j*n+i]*Y2[j]
			}
		}
		acc := 0.0
		for i := int32(0); i < n; i++ {
			acc = acc + (X1[i] + X2[i])
		}
		return f64bits(acc)
	}
	return m, native
}

func buildGemver(c Class) (*wasm.Module, func() uint64) {
	n := pick(c, 72, 400)
	const alpha, beta = 1.5, 1.2

	k := newKernel(wasm.F64)
	A := k.Lay.F64(uint32(n * n))
	U1 := k.Lay.F64(uint32(n))
	V1 := k.Lay.F64(uint32(n))
	U2 := k.Lay.F64(uint32(n))
	V2 := k.Lay.F64(uint32(n))
	W := k.Lay.F64(uint32(n))
	X := k.Lay.F64(uint32(n))
	Y := k.Lay.F64(uint32(n))
	Z := k.Lay.F64(uint32(n))
	f := k.F
	i, j := f.LocalI32("i"), f.LocalI32("j")
	acc := f.LocalF64("acc")

	fn := float64(n)
	m := k.Finish(
		g.For(i, g.I32(0), g.I32(n),
			U1.Store(g.Get(i), g.F64FromI32(g.Get(i))),
			U2.Store(g.Get(i), g.Div(g.Add(g.F64FromI32(g.Get(i)), g.F64(1)), g.F64(fn/2))),
			V1.Store(g.Get(i), g.Div(g.Add(g.F64FromI32(g.Get(i)), g.F64(1)), g.F64(fn/4))),
			V2.Store(g.Get(i), g.Div(g.Add(g.F64FromI32(g.Get(i)), g.F64(1)), g.F64(fn/6))),
			Y.Store(g.Get(i), g.Div(g.Add(g.F64FromI32(g.Get(i)), g.F64(1)), g.F64(fn/8))),
			Z.Store(g.Get(i), g.Div(g.Add(g.F64FromI32(g.Get(i)), g.F64(1)), g.F64(fn/9))),
			X.Store(g.Get(i), g.F64(0)),
			W.Store(g.Get(i), g.F64(0)),
			g.For(j, g.I32(0), g.I32(n),
				A.Store(g.Idx2(g.Get(i), g.Get(j), n),
					g.Div(g.F64FromI32(g.Rem(g.Mul(g.Get(i), g.Get(j)), g.I32(n))), g.F64(fn))),
			),
		),
		g.For(i, g.I32(0), g.I32(n),
			g.For(j, g.I32(0), g.I32(n),
				A.Store(g.Idx2(g.Get(i), g.Get(j), n),
					g.Add(A.Load(g.Idx2(g.Get(i), g.Get(j), n)),
						g.Add(g.Mul(U1.Load(g.Get(i)), V1.Load(g.Get(j))),
							g.Mul(U2.Load(g.Get(i)), V2.Load(g.Get(j)))))),
			),
		),
		g.For(i, g.I32(0), g.I32(n),
			g.For(j, g.I32(0), g.I32(n),
				X.Store(g.Get(i), g.Add(X.Load(g.Get(i)),
					g.Mul(g.Mul(g.F64(beta), A.Load(g.Idx2(g.Get(j), g.Get(i), n))),
						Y.Load(g.Get(j))))),
			),
		),
		g.For(i, g.I32(0), g.I32(n),
			X.Store(g.Get(i), g.Add(X.Load(g.Get(i)), Z.Load(g.Get(i)))),
		),
		g.For(i, g.I32(0), g.I32(n),
			g.For(j, g.I32(0), g.I32(n),
				W.Store(g.Get(i), g.Add(W.Load(g.Get(i)),
					g.Mul(g.Mul(g.F64(alpha), A.Load(g.Idx2(g.Get(i), g.Get(j), n))),
						X.Load(g.Get(j))))),
			),
		),
		g.For(i, g.I32(0), g.I32(n),
			g.Set(acc, g.Add(g.Get(acc), W.Load(g.Get(i)))),
		),
		g.Return(g.Get(acc)),
	)

	native := func() uint64 {
		A := make([]float64, n*n)
		U1 := make([]float64, n)
		V1 := make([]float64, n)
		U2 := make([]float64, n)
		V2 := make([]float64, n)
		W := make([]float64, n)
		X := make([]float64, n)
		Y := make([]float64, n)
		Z := make([]float64, n)
		for i := int32(0); i < n; i++ {
			U1[i] = float64(i)
			U2[i] = (float64(i) + 1) / (fn / 2)
			V1[i] = (float64(i) + 1) / (fn / 4)
			V2[i] = (float64(i) + 1) / (fn / 6)
			Y[i] = (float64(i) + 1) / (fn / 8)
			Z[i] = (float64(i) + 1) / (fn / 9)
			for j := int32(0); j < n; j++ {
				A[i*n+j] = float64((i*j)%n) / fn
			}
		}
		for i := int32(0); i < n; i++ {
			for j := int32(0); j < n; j++ {
				A[i*n+j] = A[i*n+j] + (U1[i]*V1[j] + U2[i]*V2[j])
			}
		}
		for i := int32(0); i < n; i++ {
			for j := int32(0); j < n; j++ {
				X[i] = X[i] + (beta*A[j*n+i])*Y[j]
			}
		}
		for i := int32(0); i < n; i++ {
			X[i] = X[i] + Z[i]
		}
		for i := int32(0); i < n; i++ {
			for j := int32(0); j < n; j++ {
				W[i] = W[i] + (alpha*A[i*n+j])*X[j]
			}
		}
		acc := 0.0
		for i := int32(0); i < n; i++ {
			acc = acc + W[i]
		}
		return f64bits(acc)
	}
	return m, native
}

func buildCovariance(c Class) (*wasm.Module, func() uint64) {
	mdim := pick(c, 20, 64) // variables
	n := pick(c, 24, 80)    // observations

	k := newKernel(wasm.F64)
	D := k.Lay.F64(uint32(n * mdim))
	Cov := k.Lay.F64(uint32(mdim * mdim))
	Mean := k.Lay.F64(uint32(mdim))
	f := k.F
	i, j, kk := f.LocalI32("i"), f.LocalI32("j"), f.LocalI32("k")
	acc := f.LocalF64("acc")

	fn := float64(n)
	m := k.Finish(
		g.For(i, g.I32(0), g.I32(n),
			g.For(j, g.I32(0), g.I32(mdim),
				D.Store(g.Idx2(g.Get(i), g.Get(j), mdim),
					g.Div(g.F64FromI32(g.Mul(g.Get(i), g.Get(j))), g.F64(float64(mdim)))),
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
		g.For(i, g.I32(0), g.I32(n),
			g.For(j, g.I32(0), g.I32(mdim),
				D.Store(g.Idx2(g.Get(i), g.Get(j), mdim),
					g.Sub(D.Load(g.Idx2(g.Get(i), g.Get(j), mdim)), Mean.Load(g.Get(j)))),
			),
		),
		g.For(i, g.I32(0), g.I32(mdim),
			g.For(j, g.Get(i), g.I32(mdim),
				Cov.Store(g.Idx2(g.Get(i), g.Get(j), mdim), g.F64(0)),
				g.For(kk, g.I32(0), g.I32(n),
					Cov.Store(g.Idx2(g.Get(i), g.Get(j), mdim),
						g.Add(Cov.Load(g.Idx2(g.Get(i), g.Get(j), mdim)),
							g.Mul(D.Load(g.Idx2(g.Get(kk), g.Get(i), mdim)),
								D.Load(g.Idx2(g.Get(kk), g.Get(j), mdim))))),
				),
				Cov.Store(g.Idx2(g.Get(i), g.Get(j), mdim),
					g.Div(Cov.Load(g.Idx2(g.Get(i), g.Get(j), mdim)), g.F64(fn-1.0))),
				Cov.Store(g.Idx2(g.Get(j), g.Get(i), mdim),
					Cov.Load(g.Idx2(g.Get(i), g.Get(j), mdim))),
			),
		),
		g.For(i, g.I32(0), g.I32(mdim),
			g.For(j, g.I32(0), g.I32(mdim),
				g.Set(acc, g.Add(g.Get(acc), Cov.Load(g.Idx2(g.Get(i), g.Get(j), mdim)))),
			),
		),
		g.Return(g.Get(acc)),
	)

	native := func() uint64 {
		D := make([]float64, n*mdim)
		Cov := make([]float64, mdim*mdim)
		Mean := make([]float64, mdim)
		for i := int32(0); i < n; i++ {
			for j := int32(0); j < mdim; j++ {
				D[i*mdim+j] = float64(i*j) / float64(mdim)
			}
		}
		for j := int32(0); j < mdim; j++ {
			Mean[j] = 0
			for i := int32(0); i < n; i++ {
				Mean[j] = Mean[j] + D[i*mdim+j]
			}
			Mean[j] = Mean[j] / fn
		}
		for i := int32(0); i < n; i++ {
			for j := int32(0); j < mdim; j++ {
				D[i*mdim+j] = D[i*mdim+j] - Mean[j]
			}
		}
		for i := int32(0); i < mdim; i++ {
			for j := i; j < mdim; j++ {
				Cov[i*mdim+j] = 0
				for k := int32(0); k < n; k++ {
					Cov[i*mdim+j] = Cov[i*mdim+j] + D[k*mdim+i]*D[k*mdim+j]
				}
				Cov[i*mdim+j] = Cov[i*mdim+j] / (fn - 1.0)
				Cov[j*mdim+i] = Cov[i*mdim+j]
			}
		}
		acc := 0.0
		for i := int32(0); i < mdim; i++ {
			for j := int32(0); j < mdim; j++ {
				acc = acc + Cov[i*mdim+j]
			}
		}
		return f64bits(acc)
	}
	return m, native
}
