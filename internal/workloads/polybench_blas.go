package workloads

import (
	"leapsandbounds/internal/wasm"
	g "leapsandbounds/internal/wasmgen"
)

// This file implements the BLAS-shaped PolyBench kernels: gemm,
// 2mm, 3mm, gesummv, syrk, syr2k, trmm and symm. Each follows the
// PolyBench/C reference loop structure; wasm and native twins are
// written from the same loops so checksums match bit-for-bit.

func init() {
	register(Spec{Name: "gemm", Suite: "polybench",
		Desc:    "C = alpha*A*B + beta*C",
		BuildFn: buildGemm})
	register(Spec{Name: "2mm", Suite: "polybench",
		Desc:    "D = alpha*A*B*C + beta*D",
		BuildFn: build2mm})
	register(Spec{Name: "3mm", Suite: "polybench",
		Desc:    "G = (A*B)*(C*D)",
		BuildFn: build3mm})
	register(Spec{Name: "gesummv", Suite: "polybench",
		Desc:    "y = alpha*A*x + beta*B*x",
		BuildFn: buildGesummv})
	register(Spec{Name: "syrk", Suite: "polybench",
		Desc:    "symmetric rank-k update",
		BuildFn: buildSyrk})
	register(Spec{Name: "syr2k", Suite: "polybench",
		Desc:    "symmetric rank-2k update",
		BuildFn: buildSyr2k})
	register(Spec{Name: "trmm", Suite: "polybench",
		Desc:    "triangular matrix multiply",
		BuildFn: buildTrmm})
	register(Spec{Name: "symm", Suite: "polybench",
		Desc:    "symmetric matrix multiply",
		BuildFn: buildSymm})
}

const (
	gemmAlpha = 1.5
	gemmBeta  = 1.2
)

func buildGemm(c Class) (*wasm.Module, func() uint64) {
	ni := pick(c, 20, 72)
	nj := pick(c, 22, 76)
	nk := pick(c, 24, 80)

	k := newKernel(wasm.F64)
	A := k.Lay.F64(uint32(ni * nk))
	B := k.Lay.F64(uint32(nk * nj))
	C := k.Lay.F64(uint32(ni * nj))
	f := k.F
	i, j, kk := f.LocalI32("i"), f.LocalI32("j"), f.LocalI32("k")
	acc := f.LocalF64("acc")

	m := k.Finish(
		// init: A[i][k] = ((i*k+1) % ni)/ni, B[k][j] = (k*j % nj)/nj,
		// C[i][j] = ((i*j+1) % nj)/nj
		g.For(i, g.I32(0), g.I32(ni),
			g.For(j, g.I32(0), g.I32(nk),
				A.Store(g.Idx2(g.Get(i), g.Get(j), nk),
					fdiv(g.Add(g.Mul(g.Get(i), g.Get(j)), g.I32(1)), ni, ni)),
			),
		),
		g.For(i, g.I32(0), g.I32(nk),
			g.For(j, g.I32(0), g.I32(nj),
				B.Store(g.Idx2(g.Get(i), g.Get(j), nj),
					fdiv(g.Mul(g.Get(i), g.Get(j)), nj, nj)),
			),
		),
		g.For(i, g.I32(0), g.I32(ni),
			g.For(j, g.I32(0), g.I32(nj),
				C.Store(g.Idx2(g.Get(i), g.Get(j), nj),
					fdiv(g.Add(g.Mul(g.Get(i), g.Get(j)), g.I32(1)), nj, nj)),
			),
		),
		// kernel
		g.For(i, g.I32(0), g.I32(ni),
			g.For(j, g.I32(0), g.I32(nj),
				C.Store(g.Idx2(g.Get(i), g.Get(j), nj),
					g.Mul(C.Load(g.Idx2(g.Get(i), g.Get(j), nj)), g.F64(gemmBeta))),
			),
			g.For(kk, g.I32(0), g.I32(nk),
				g.For(j, g.I32(0), g.I32(nj),
					C.Store(g.Idx2(g.Get(i), g.Get(j), nj),
						g.Add(C.Load(g.Idx2(g.Get(i), g.Get(j), nj)),
							g.Mul(g.Mul(g.F64(gemmAlpha), A.Load(g.Idx2(g.Get(i), g.Get(kk), nk))),
								B.Load(g.Idx2(g.Get(kk), g.Get(j), nj))))),
				),
			),
		),
		// checksum
		g.For(i, g.I32(0), g.I32(ni),
			g.For(j, g.I32(0), g.I32(nj),
				g.Set(acc, g.Add(g.Get(acc), C.Load(g.Idx2(g.Get(i), g.Get(j), nj)))),
			),
		),
		g.Return(g.Get(acc)),
	)

	native := func() uint64 {
		A := make([]float64, ni*nk)
		B := make([]float64, nk*nj)
		C := make([]float64, ni*nj)
		for i := int32(0); i < ni; i++ {
			for j := int32(0); j < nk; j++ {
				A[i*nk+j] = nfdiv(i*j+1, ni, ni)
			}
		}
		for i := int32(0); i < nk; i++ {
			for j := int32(0); j < nj; j++ {
				B[i*nj+j] = nfdiv(i*j, nj, nj)
			}
		}
		for i := int32(0); i < ni; i++ {
			for j := int32(0); j < nj; j++ {
				C[i*nj+j] = nfdiv(i*j+1, nj, nj)
			}
		}
		for i := int32(0); i < ni; i++ {
			for j := int32(0); j < nj; j++ {
				C[i*nj+j] = C[i*nj+j] * gemmBeta
			}
			for k := int32(0); k < nk; k++ {
				for j := int32(0); j < nj; j++ {
					C[i*nj+j] = C[i*nj+j] + (gemmAlpha*A[i*nk+k])*B[k*nj+j]
				}
			}
		}
		acc := 0.0
		for i := int32(0); i < ni; i++ {
			for j := int32(0); j < nj; j++ {
				acc = acc + C[i*nj+j]
			}
		}
		return f64bits(acc)
	}
	return m, native
}

func build2mm(c Class) (*wasm.Module, func() uint64) {
	ni := pick(c, 16, 56)
	nj := pick(c, 18, 60)
	nk := pick(c, 20, 64)
	nl := pick(c, 22, 68)
	const alpha, beta = 1.5, 1.2

	k := newKernel(wasm.F64)
	A := k.Lay.F64(uint32(ni * nk))
	B := k.Lay.F64(uint32(nk * nj))
	C := k.Lay.F64(uint32(nj * nl))
	D := k.Lay.F64(uint32(ni * nl))
	T := k.Lay.F64(uint32(ni * nj))
	f := k.F
	i, j, kk := f.LocalI32("i"), f.LocalI32("j"), f.LocalI32("k")
	acc := f.LocalF64("acc")

	m := k.Finish(
		g.For(i, g.I32(0), g.I32(ni),
			g.For(j, g.I32(0), g.I32(nk),
				A.Store(g.Idx2(g.Get(i), g.Get(j), nk),
					fdiv(g.Mul(g.Get(i), g.Get(j)), ni, ni)),
			),
		),
		g.For(i, g.I32(0), g.I32(nk),
			g.For(j, g.I32(0), g.I32(nj),
				B.Store(g.Idx2(g.Get(i), g.Get(j), nj),
					fdiv(g.Add(g.Mul(g.Get(i), g.Get(j)), g.I32(1)), nj, nj)),
			),
		),
		g.For(i, g.I32(0), g.I32(nj),
			g.For(j, g.I32(0), g.I32(nl),
				C.Store(g.Idx2(g.Get(i), g.Get(j), nl),
					fdiv(g.Add(g.Mul(g.Get(i), g.Get(j)), g.I32(3)), nl, nl)),
			),
		),
		g.For(i, g.I32(0), g.I32(ni),
			g.For(j, g.I32(0), g.I32(nl),
				D.Store(g.Idx2(g.Get(i), g.Get(j), nl),
					fdiv(g.Add(g.Mul(g.Get(i), g.Get(j)), g.I32(2)), nk, nk)),
			),
		),
		// T = alpha*A*B
		g.For(i, g.I32(0), g.I32(ni),
			g.For(j, g.I32(0), g.I32(nj),
				T.Store(g.Idx2(g.Get(i), g.Get(j), nj), g.F64(0)),
				g.For(kk, g.I32(0), g.I32(nk),
					T.Store(g.Idx2(g.Get(i), g.Get(j), nj),
						g.Add(T.Load(g.Idx2(g.Get(i), g.Get(j), nj)),
							g.Mul(g.Mul(g.F64(alpha), A.Load(g.Idx2(g.Get(i), g.Get(kk), nk))),
								B.Load(g.Idx2(g.Get(kk), g.Get(j), nj))))),
				),
			),
		),
		// D = beta*D + T*C
		g.For(i, g.I32(0), g.I32(ni),
			g.For(j, g.I32(0), g.I32(nl),
				D.Store(g.Idx2(g.Get(i), g.Get(j), nl),
					g.Mul(D.Load(g.Idx2(g.Get(i), g.Get(j), nl)), g.F64(beta))),
				g.For(kk, g.I32(0), g.I32(nj),
					D.Store(g.Idx2(g.Get(i), g.Get(j), nl),
						g.Add(D.Load(g.Idx2(g.Get(i), g.Get(j), nl)),
							g.Mul(T.Load(g.Idx2(g.Get(i), g.Get(kk), nj)),
								C.Load(g.Idx2(g.Get(kk), g.Get(j), nl))))),
				),
			),
		),
		g.For(i, g.I32(0), g.I32(ni),
			g.For(j, g.I32(0), g.I32(nl),
				g.Set(acc, g.Add(g.Get(acc), D.Load(g.Idx2(g.Get(i), g.Get(j), nl)))),
			),
		),
		g.Return(g.Get(acc)),
	)

	native := func() uint64 {
		A := make([]float64, ni*nk)
		B := make([]float64, nk*nj)
		C := make([]float64, nj*nl)
		D := make([]float64, ni*nl)
		T := make([]float64, ni*nj)
		for i := int32(0); i < ni; i++ {
			for j := int32(0); j < nk; j++ {
				A[i*nk+j] = nfdiv(i*j, ni, ni)
			}
		}
		for i := int32(0); i < nk; i++ {
			for j := int32(0); j < nj; j++ {
				B[i*nj+j] = nfdiv(i*j+1, nj, nj)
			}
		}
		for i := int32(0); i < nj; i++ {
			for j := int32(0); j < nl; j++ {
				C[i*nl+j] = nfdiv(i*j+3, nl, nl)
			}
		}
		for i := int32(0); i < ni; i++ {
			for j := int32(0); j < nl; j++ {
				D[i*nl+j] = nfdiv(i*j+2, nk, nk)
			}
		}
		for i := int32(0); i < ni; i++ {
			for j := int32(0); j < nj; j++ {
				T[i*nj+j] = 0
				for k := int32(0); k < nk; k++ {
					T[i*nj+j] = T[i*nj+j] + (alpha*A[i*nk+k])*B[k*nj+j]
				}
			}
		}
		for i := int32(0); i < ni; i++ {
			for j := int32(0); j < nl; j++ {
				D[i*nl+j] = D[i*nl+j] * beta
				for k := int32(0); k < nj; k++ {
					D[i*nl+j] = D[i*nl+j] + T[i*nj+k]*C[k*nl+j]
				}
			}
		}
		acc := 0.0
		for i := int32(0); i < ni; i++ {
			for j := int32(0); j < nl; j++ {
				acc = acc + D[i*nl+j]
			}
		}
		return f64bits(acc)
	}
	return m, native
}

func build3mm(c Class) (*wasm.Module, func() uint64) {
	ni := pick(c, 14, 48)
	nj := pick(c, 16, 52)
	nk := pick(c, 18, 56)
	nl := pick(c, 20, 60)
	nm := pick(c, 22, 64)

	k := newKernel(wasm.F64)
	A := k.Lay.F64(uint32(ni * nk))
	B := k.Lay.F64(uint32(nk * nj))
	C := k.Lay.F64(uint32(nj * nm))
	D := k.Lay.F64(uint32(nm * nl))
	E := k.Lay.F64(uint32(ni * nj))
	F := k.Lay.F64(uint32(nj * nl))
	G := k.Lay.F64(uint32(ni * nl))
	f := k.F
	i, j, kk := f.LocalI32("i"), f.LocalI32("j"), f.LocalI32("k")
	acc := f.LocalF64("acc")

	matmul := func(dst, a, b g.Arr, n1, n2, n3 int32) g.Stmt {
		// dst[n1×n3] = a[n1×n2] * b[n2×n3]
		return g.For(i, g.I32(0), g.I32(n1),
			g.For(j, g.I32(0), g.I32(n3),
				dst.Store(g.Idx2(g.Get(i), g.Get(j), n3), g.F64(0)),
				g.For(kk, g.I32(0), g.I32(n2),
					dst.Store(g.Idx2(g.Get(i), g.Get(j), n3),
						g.Add(dst.Load(g.Idx2(g.Get(i), g.Get(j), n3)),
							g.Mul(a.Load(g.Idx2(g.Get(i), g.Get(kk), n2)),
								b.Load(g.Idx2(g.Get(kk), g.Get(j), n3))))),
				),
			),
		)
	}

	m := k.Finish(
		g.For(i, g.I32(0), g.I32(ni),
			g.For(j, g.I32(0), g.I32(nk),
				A.Store(g.Idx2(g.Get(i), g.Get(j), nk),
					fdiv(g.Mul(g.Get(i), g.Get(j)), ni, ni)),
			),
		),
		g.For(i, g.I32(0), g.I32(nk),
			g.For(j, g.I32(0), g.I32(nj),
				B.Store(g.Idx2(g.Get(i), g.Get(j), nj),
					fdiv(g.Add(g.Mul(g.Get(i), g.Get(j)), g.I32(1)), nj, nj)),
			),
		),
		g.For(i, g.I32(0), g.I32(nj),
			g.For(j, g.I32(0), g.I32(nm),
				C.Store(g.Idx2(g.Get(i), g.Get(j), nm),
					fdiv(g.Add(g.Mul(g.Get(i), g.Get(j)), g.I32(3)), nl, nl)),
			),
		),
		g.For(i, g.I32(0), g.I32(nm),
			g.For(j, g.I32(0), g.I32(nl),
				D.Store(g.Idx2(g.Get(i), g.Get(j), nl),
					fdiv(g.Add(g.Mul(g.Get(i), g.Get(j)), g.I32(2)), nk, nk)),
			),
		),
		matmul(E, A, B, ni, nk, nj),
		matmul(F, C, D, nj, nm, nl),
		matmul(G, E, F, ni, nj, nl),
		g.For(i, g.I32(0), g.I32(ni),
			g.For(j, g.I32(0), g.I32(nl),
				g.Set(acc, g.Add(g.Get(acc), G.Load(g.Idx2(g.Get(i), g.Get(j), nl)))),
			),
		),
		g.Return(g.Get(acc)),
	)

	native := func() uint64 {
		A := make([]float64, ni*nk)
		B := make([]float64, nk*nj)
		C := make([]float64, nj*nm)
		D := make([]float64, nm*nl)
		E := make([]float64, ni*nj)
		F := make([]float64, nj*nl)
		G := make([]float64, ni*nl)
		for i := int32(0); i < ni; i++ {
			for j := int32(0); j < nk; j++ {
				A[i*nk+j] = nfdiv(i*j, ni, ni)
			}
		}
		for i := int32(0); i < nk; i++ {
			for j := int32(0); j < nj; j++ {
				B[i*nj+j] = nfdiv(i*j+1, nj, nj)
			}
		}
		for i := int32(0); i < nj; i++ {
			for j := int32(0); j < nm; j++ {
				C[i*nm+j] = nfdiv(i*j+3, nl, nl)
			}
		}
		for i := int32(0); i < nm; i++ {
			for j := int32(0); j < nl; j++ {
				D[i*nl+j] = nfdiv(i*j+2, nk, nk)
			}
		}
		mm := func(dst, a, b []float64, n1, n2, n3 int32) {
			for i := int32(0); i < n1; i++ {
				for j := int32(0); j < n3; j++ {
					dst[i*n3+j] = 0
					for k := int32(0); k < n2; k++ {
						dst[i*n3+j] = dst[i*n3+j] + a[i*n2+k]*b[k*n3+j]
					}
				}
			}
		}
		mm(E, A, B, ni, nk, nj)
		mm(F, C, D, nj, nm, nl)
		mm(G, E, F, ni, nj, nl)
		acc := 0.0
		for i := int32(0); i < ni; i++ {
			for j := int32(0); j < nl; j++ {
				acc = acc + G[i*nl+j]
			}
		}
		return f64bits(acc)
	}
	return m, native
}

func buildGesummv(c Class) (*wasm.Module, func() uint64) {
	n := pick(c, 64, 400)
	const alpha, beta = 1.5, 1.2

	k := newKernel(wasm.F64)
	A := k.Lay.F64(uint32(n * n))
	B := k.Lay.F64(uint32(n * n))
	X := k.Lay.F64(uint32(n))
	Y := k.Lay.F64(uint32(n))
	f := k.F
	i, j := f.LocalI32("i"), f.LocalI32("j")
	tmp := f.LocalF64("tmp")
	yv := f.LocalF64("yv")
	acc := f.LocalF64("acc")

	m := k.Finish(
		g.For(i, g.I32(0), g.I32(n),
			X.Store(g.Get(i), fdiv(g.Get(i), n, n)),
			g.For(j, g.I32(0), g.I32(n),
				A.Store(g.Idx2(g.Get(i), g.Get(j), n),
					fdiv(g.Add(g.Mul(g.Get(i), g.Get(j)), g.I32(1)), n, n)),
				B.Store(g.Idx2(g.Get(i), g.Get(j), n),
					fdiv(g.Add(g.Mul(g.Get(i), g.Get(j)), g.I32(2)), n, n)),
			),
		),
		g.For(i, g.I32(0), g.I32(n),
			g.Set(tmp, g.F64(0)),
			g.Set(yv, g.F64(0)),
			g.For(j, g.I32(0), g.I32(n),
				g.Set(tmp, g.Add(g.Mul(A.Load(g.Idx2(g.Get(i), g.Get(j), n)), X.Load(g.Get(j))), g.Get(tmp))),
				g.Set(yv, g.Add(g.Mul(B.Load(g.Idx2(g.Get(i), g.Get(j), n)), X.Load(g.Get(j))), g.Get(yv))),
			),
			Y.Store(g.Get(i), g.Add(g.Mul(g.F64(alpha), g.Get(tmp)), g.Mul(g.F64(beta), g.Get(yv)))),
		),
		g.For(i, g.I32(0), g.I32(n),
			g.Set(acc, g.Add(g.Get(acc), Y.Load(g.Get(i)))),
		),
		g.Return(g.Get(acc)),
	)

	native := func() uint64 {
		A := make([]float64, n*n)
		B := make([]float64, n*n)
		X := make([]float64, n)
		Y := make([]float64, n)
		for i := int32(0); i < n; i++ {
			X[i] = nfdiv(i, n, n)
			for j := int32(0); j < n; j++ {
				A[i*n+j] = nfdiv(i*j+1, n, n)
				B[i*n+j] = nfdiv(i*j+2, n, n)
			}
		}
		for i := int32(0); i < n; i++ {
			tmp, yv := 0.0, 0.0
			for j := int32(0); j < n; j++ {
				tmp = A[i*n+j]*X[j] + tmp
				yv = B[i*n+j]*X[j] + yv
			}
			Y[i] = alpha*tmp + beta*yv
		}
		acc := 0.0
		for i := int32(0); i < n; i++ {
			acc = acc + Y[i]
		}
		return f64bits(acc)
	}
	return m, native
}

func buildSyrk(c Class) (*wasm.Module, func() uint64) {
	n := pick(c, 24, 80)    // C is n×n
	mdim := pick(c, 20, 64) // A is n×m
	const alpha, beta = 1.5, 1.2

	k := newKernel(wasm.F64)
	A := k.Lay.F64(uint32(n * mdim))
	C := k.Lay.F64(uint32(n * n))
	f := k.F
	i, j, kk := f.LocalI32("i"), f.LocalI32("j"), f.LocalI32("k")
	acc := f.LocalF64("acc")

	m := k.Finish(
		g.For(i, g.I32(0), g.I32(n),
			g.For(j, g.I32(0), g.I32(mdim),
				A.Store(g.Idx2(g.Get(i), g.Get(j), mdim),
					fdiv(g.Add(g.Mul(g.Get(i), g.Get(j)), g.I32(1)), n, n)),
			),
			g.For(j, g.I32(0), g.I32(n),
				C.Store(g.Idx2(g.Get(i), g.Get(j), n),
					fdiv(g.Add(g.Mul(g.Get(i), g.Get(j)), g.I32(2)), mdim, mdim)),
			),
		),
		g.For(i, g.I32(0), g.I32(n),
			g.For(j, g.I32(0), g.Add(g.Get(i), g.I32(1)),
				C.Store(g.Idx2(g.Get(i), g.Get(j), n),
					g.Mul(C.Load(g.Idx2(g.Get(i), g.Get(j), n)), g.F64(beta))),
			),
			g.For(kk, g.I32(0), g.I32(mdim),
				g.For(j, g.I32(0), g.Add(g.Get(i), g.I32(1)),
					C.Store(g.Idx2(g.Get(i), g.Get(j), n),
						g.Add(C.Load(g.Idx2(g.Get(i), g.Get(j), n)),
							g.Mul(g.Mul(g.F64(alpha), A.Load(g.Idx2(g.Get(i), g.Get(kk), mdim))),
								A.Load(g.Idx2(g.Get(j), g.Get(kk), mdim))))),
				),
			),
		),
		g.For(i, g.I32(0), g.I32(n),
			g.For(j, g.I32(0), g.I32(n),
				g.Set(acc, g.Add(g.Get(acc), C.Load(g.Idx2(g.Get(i), g.Get(j), n)))),
			),
		),
		g.Return(g.Get(acc)),
	)

	native := func() uint64 {
		A := make([]float64, n*mdim)
		C := make([]float64, n*n)
		for i := int32(0); i < n; i++ {
			for j := int32(0); j < mdim; j++ {
				A[i*mdim+j] = nfdiv(i*j+1, n, n)
			}
			for j := int32(0); j < n; j++ {
				C[i*n+j] = nfdiv(i*j+2, mdim, mdim)
			}
		}
		for i := int32(0); i < n; i++ {
			for j := int32(0); j <= i; j++ {
				C[i*n+j] = C[i*n+j] * beta
			}
			for k := int32(0); k < mdim; k++ {
				for j := int32(0); j <= i; j++ {
					C[i*n+j] = C[i*n+j] + (alpha*A[i*mdim+k])*A[j*mdim+k]
				}
			}
		}
		acc := 0.0
		for i := int32(0); i < n; i++ {
			for j := int32(0); j < n; j++ {
				acc = acc + C[i*n+j]
			}
		}
		return f64bits(acc)
	}
	return m, native
}

func buildSyr2k(c Class) (*wasm.Module, func() uint64) {
	n := pick(c, 22, 72)
	mdim := pick(c, 18, 56)
	const alpha, beta = 1.5, 1.2

	k := newKernel(wasm.F64)
	A := k.Lay.F64(uint32(n * mdim))
	B := k.Lay.F64(uint32(n * mdim))
	C := k.Lay.F64(uint32(n * n))
	f := k.F
	i, j, kk := f.LocalI32("i"), f.LocalI32("j"), f.LocalI32("k")
	acc := f.LocalF64("acc")

	m := k.Finish(
		g.For(i, g.I32(0), g.I32(n),
			g.For(j, g.I32(0), g.I32(mdim),
				A.Store(g.Idx2(g.Get(i), g.Get(j), mdim),
					fdiv(g.Add(g.Mul(g.Get(i), g.Get(j)), g.I32(1)), n, n)),
				B.Store(g.Idx2(g.Get(i), g.Get(j), mdim),
					fdiv(g.Add(g.Mul(g.Get(i), g.Get(j)), g.I32(2)), mdim, mdim)),
			),
			g.For(j, g.I32(0), g.I32(n),
				C.Store(g.Idx2(g.Get(i), g.Get(j), n),
					fdiv(g.Add(g.Mul(g.Get(i), g.Get(j)), g.I32(3)), n, n)),
			),
		),
		g.For(i, g.I32(0), g.I32(n),
			g.For(j, g.I32(0), g.Add(g.Get(i), g.I32(1)),
				C.Store(g.Idx2(g.Get(i), g.Get(j), n),
					g.Mul(C.Load(g.Idx2(g.Get(i), g.Get(j), n)), g.F64(beta))),
			),
			g.For(kk, g.I32(0), g.I32(mdim),
				g.For(j, g.I32(0), g.Add(g.Get(i), g.I32(1)),
					C.Store(g.Idx2(g.Get(i), g.Get(j), n),
						g.Add(C.Load(g.Idx2(g.Get(i), g.Get(j), n)),
							g.Add(
								g.Mul(g.Mul(A.Load(g.Idx2(g.Get(j), g.Get(kk), mdim)), g.F64(alpha)),
									B.Load(g.Idx2(g.Get(i), g.Get(kk), mdim))),
								g.Mul(g.Mul(B.Load(g.Idx2(g.Get(j), g.Get(kk), mdim)), g.F64(alpha)),
									A.Load(g.Idx2(g.Get(i), g.Get(kk), mdim)))))),
				),
			),
		),
		g.For(i, g.I32(0), g.I32(n),
			g.For(j, g.I32(0), g.I32(n),
				g.Set(acc, g.Add(g.Get(acc), C.Load(g.Idx2(g.Get(i), g.Get(j), n)))),
			),
		),
		g.Return(g.Get(acc)),
	)

	native := func() uint64 {
		A := make([]float64, n*mdim)
		B := make([]float64, n*mdim)
		C := make([]float64, n*n)
		for i := int32(0); i < n; i++ {
			for j := int32(0); j < mdim; j++ {
				A[i*mdim+j] = nfdiv(i*j+1, n, n)
				B[i*mdim+j] = nfdiv(i*j+2, mdim, mdim)
			}
			for j := int32(0); j < n; j++ {
				C[i*n+j] = nfdiv(i*j+3, n, n)
			}
		}
		for i := int32(0); i < n; i++ {
			for j := int32(0); j <= i; j++ {
				C[i*n+j] = C[i*n+j] * beta
			}
			for k := int32(0); k < mdim; k++ {
				for j := int32(0); j <= i; j++ {
					C[i*n+j] = C[i*n+j] +
						((A[j*mdim+k]*alpha)*B[i*mdim+k] + (B[j*mdim+k]*alpha)*A[i*mdim+k])
				}
			}
		}
		acc := 0.0
		for i := int32(0); i < n; i++ {
			for j := int32(0); j < n; j++ {
				acc = acc + C[i*n+j]
			}
		}
		return f64bits(acc)
	}
	return m, native
}

func buildTrmm(c Class) (*wasm.Module, func() uint64) {
	mdim := pick(c, 24, 72)
	n := pick(c, 28, 80)
	const alpha = 1.5

	k := newKernel(wasm.F64)
	A := k.Lay.F64(uint32(mdim * mdim))
	B := k.Lay.F64(uint32(mdim * n))
	f := k.F
	i, j, kk := f.LocalI32("i"), f.LocalI32("j"), f.LocalI32("k")
	acc := f.LocalF64("acc")

	m := k.Finish(
		g.For(i, g.I32(0), g.I32(mdim),
			g.For(j, g.I32(0), g.I32(mdim),
				A.Store(g.Idx2(g.Get(i), g.Get(j), mdim),
					fdiv(g.Add(g.Mul(g.Get(i), g.Get(j)), g.I32(1)), mdim, mdim)),
			),
			g.For(j, g.I32(0), g.I32(n),
				B.Store(g.Idx2(g.Get(i), g.Get(j), n),
					fdiv(g.Add(g.Add(g.Get(i), g.Get(j)), g.I32(2)), n, n)),
			),
		),
		// B = alpha * A^T * B with A unit lower triangular.
		g.For(i, g.I32(0), g.I32(mdim),
			g.For(j, g.I32(0), g.I32(n),
				g.For(kk, g.Add(g.Get(i), g.I32(1)), g.I32(mdim),
					B.Store(g.Idx2(g.Get(i), g.Get(j), n),
						g.Add(B.Load(g.Idx2(g.Get(i), g.Get(j), n)),
							g.Mul(A.Load(g.Idx2(g.Get(kk), g.Get(i), mdim)),
								B.Load(g.Idx2(g.Get(kk), g.Get(j), n))))),
				),
				B.Store(g.Idx2(g.Get(i), g.Get(j), n),
					g.Mul(g.F64(alpha), B.Load(g.Idx2(g.Get(i), g.Get(j), n)))),
			),
		),
		g.For(i, g.I32(0), g.I32(mdim),
			g.For(j, g.I32(0), g.I32(n),
				g.Set(acc, g.Add(g.Get(acc), B.Load(g.Idx2(g.Get(i), g.Get(j), n)))),
			),
		),
		g.Return(g.Get(acc)),
	)

	native := func() uint64 {
		A := make([]float64, mdim*mdim)
		B := make([]float64, mdim*n)
		for i := int32(0); i < mdim; i++ {
			for j := int32(0); j < mdim; j++ {
				A[i*mdim+j] = nfdiv(i*j+1, mdim, mdim)
			}
			for j := int32(0); j < n; j++ {
				B[i*n+j] = nfdiv(i+j+2, n, n)
			}
		}
		for i := int32(0); i < mdim; i++ {
			for j := int32(0); j < n; j++ {
				for k := i + 1; k < mdim; k++ {
					B[i*n+j] = B[i*n+j] + A[k*mdim+i]*B[k*n+j]
				}
				B[i*n+j] = alpha * B[i*n+j]
			}
		}
		acc := 0.0
		for i := int32(0); i < mdim; i++ {
			for j := int32(0); j < n; j++ {
				acc = acc + B[i*n+j]
			}
		}
		return f64bits(acc)
	}
	return m, native
}

func buildSymm(c Class) (*wasm.Module, func() uint64) {
	mdim := pick(c, 20, 64)
	n := pick(c, 24, 72)
	const alpha, beta = 1.5, 1.2

	k := newKernel(wasm.F64)
	A := k.Lay.F64(uint32(mdim * mdim))
	B := k.Lay.F64(uint32(mdim * n))
	C := k.Lay.F64(uint32(mdim * n))
	f := k.F
	i, j, kk := f.LocalI32("i"), f.LocalI32("j"), f.LocalI32("k")
	temp2 := f.LocalF64("temp2")
	acc := f.LocalF64("acc")

	m := k.Finish(
		g.For(i, g.I32(0), g.I32(mdim),
			g.For(j, g.I32(0), g.I32(mdim),
				A.Store(g.Idx2(g.Get(i), g.Get(j), mdim),
					fdiv(g.Add(g.Mul(g.Get(i), g.Get(j)), g.I32(1)), mdim, mdim)),
			),
			g.For(j, g.I32(0), g.I32(n),
				B.Store(g.Idx2(g.Get(i), g.Get(j), n),
					fdiv(g.Add(g.Add(g.Get(i), g.Get(j)), g.I32(2)), n, n)),
				C.Store(g.Idx2(g.Get(i), g.Get(j), n),
					fdiv(g.Add(g.Add(g.Get(i), g.Get(j)), g.I32(3)), mdim, mdim)),
			),
		),
		g.For(i, g.I32(0), g.I32(mdim),
			g.For(j, g.I32(0), g.I32(n),
				g.Set(temp2, g.F64(0)),
				g.For(kk, g.I32(0), g.Get(i),
					C.Store(g.Idx2(g.Get(kk), g.Get(j), n),
						g.Add(C.Load(g.Idx2(g.Get(kk), g.Get(j), n)),
							g.Mul(g.Mul(g.F64(alpha), B.Load(g.Idx2(g.Get(i), g.Get(j), n))),
								A.Load(g.Idx2(g.Get(i), g.Get(kk), mdim))))),
					g.Set(temp2, g.Add(g.Get(temp2),
						g.Mul(B.Load(g.Idx2(g.Get(kk), g.Get(j), n)),
							A.Load(g.Idx2(g.Get(i), g.Get(kk), mdim))))),
				),
				C.Store(g.Idx2(g.Get(i), g.Get(j), n),
					g.Add(g.Add(
						g.Mul(g.F64(beta), C.Load(g.Idx2(g.Get(i), g.Get(j), n))),
						g.Mul(g.Mul(g.F64(alpha), B.Load(g.Idx2(g.Get(i), g.Get(j), n))),
							A.Load(g.Idx2(g.Get(i), g.Get(i), mdim)))),
						g.Mul(g.F64(alpha), g.Get(temp2)))),
			),
		),
		g.For(i, g.I32(0), g.I32(mdim),
			g.For(j, g.I32(0), g.I32(n),
				g.Set(acc, g.Add(g.Get(acc), C.Load(g.Idx2(g.Get(i), g.Get(j), n)))),
			),
		),
		g.Return(g.Get(acc)),
	)

	native := func() uint64 {
		A := make([]float64, mdim*mdim)
		B := make([]float64, mdim*n)
		C := make([]float64, mdim*n)
		for i := int32(0); i < mdim; i++ {
			for j := int32(0); j < mdim; j++ {
				A[i*mdim+j] = nfdiv(i*j+1, mdim, mdim)
			}
			for j := int32(0); j < n; j++ {
				B[i*n+j] = nfdiv(i+j+2, n, n)
				C[i*n+j] = nfdiv(i+j+3, mdim, mdim)
			}
		}
		for i := int32(0); i < mdim; i++ {
			for j := int32(0); j < n; j++ {
				temp2 := 0.0
				for k := int32(0); k < i; k++ {
					C[k*n+j] = C[k*n+j] + (alpha*B[i*n+j])*A[i*mdim+k]
					temp2 = temp2 + B[k*n+j]*A[i*mdim+k]
				}
				C[i*n+j] = beta*C[i*n+j] + (alpha*B[i*n+j])*A[i*mdim+i] + alpha*temp2
			}
		}
		acc := 0.0
		for i := int32(0); i < mdim; i++ {
			for j := int32(0); j < n; j++ {
				acc = acc + C[i*n+j]
			}
		}
		return f64bits(acc)
	}
	return m, native
}
