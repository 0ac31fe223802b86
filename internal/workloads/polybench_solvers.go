package workloads

import (
	"math"

	"leapsandbounds/internal/wasm"
	g "leapsandbounds/internal/wasmgen"
)

// This file implements the solver-shaped PolyBench kernels:
// cholesky, lu, trisolv and durbin. Matrix kernels use diagonally
// dominant symmetric initializations so factorizations stay
// numerically well-behaved at every size class.

func init() {
	register(Spec{Name: "cholesky", Suite: "polybench",
		Desc:    "Cholesky factorization",
		BuildFn: buildCholesky})
	register(Spec{Name: "lu", Suite: "polybench",
		Desc:    "LU factorization",
		BuildFn: buildLU})
	register(Spec{Name: "trisolv", Suite: "polybench",
		Desc:    "triangular solve",
		BuildFn: buildTrisolv})
	register(Spec{Name: "durbin", Suite: "polybench",
		Desc:    "Toeplitz system solver",
		BuildFn: buildDurbin})
}

// ddInit emits the diagonally dominant symmetric initialization
// A[i][j] = 0.1*((i+j)%n)/n off-diagonal, A[i][i] = n.
func ddInit(A g.Arr, i, j *g.Local, n int32) g.Stmt {
	return g.For(i, g.I32(0), g.I32(n),
		g.For(j, g.I32(0), g.I32(n),
			A.Store(g.Idx2(g.Get(i), g.Get(j), n),
				g.Mul(g.F64(0.1), fdiv(g.Add(g.Get(i), g.Get(j)), n, n))),
		),
		A.Store(g.Idx2(g.Get(i), g.Get(i), n), g.F64(float64(n))),
	)
}

func nddInit(A []float64, n int32) {
	for i := int32(0); i < n; i++ {
		for j := int32(0); j < n; j++ {
			A[i*n+j] = 0.1 * nfdiv(i+j, n, n)
		}
		A[i*n+i] = float64(n)
	}
}

func buildCholesky(c Class) (*wasm.Module, func() uint64) {
	n := pick(c, 32, 96)

	k := newKernel(wasm.F64)
	A := k.Lay.F64(uint32(n * n))
	f := k.F
	i, j, kk := f.LocalI32("i"), f.LocalI32("j"), f.LocalI32("k")
	acc := f.LocalF64("acc")

	m := k.Finish(
		ddInit(A, i, j, n),
		g.For(i, g.I32(0), g.I32(n),
			g.For(j, g.I32(0), g.Get(i),
				g.For(kk, g.I32(0), g.Get(j),
					A.Store(g.Idx2(g.Get(i), g.Get(j), n),
						g.Sub(A.Load(g.Idx2(g.Get(i), g.Get(j), n)),
							g.Mul(A.Load(g.Idx2(g.Get(i), g.Get(kk), n)),
								A.Load(g.Idx2(g.Get(j), g.Get(kk), n))))),
				),
				A.Store(g.Idx2(g.Get(i), g.Get(j), n),
					g.Div(A.Load(g.Idx2(g.Get(i), g.Get(j), n)),
						A.Load(g.Idx2(g.Get(j), g.Get(j), n)))),
			),
			g.For(kk, g.I32(0), g.Get(i),
				A.Store(g.Idx2(g.Get(i), g.Get(i), n),
					g.Sub(A.Load(g.Idx2(g.Get(i), g.Get(i), n)),
						g.Mul(A.Load(g.Idx2(g.Get(i), g.Get(kk), n)),
							A.Load(g.Idx2(g.Get(i), g.Get(kk), n))))),
			),
			A.Store(g.Idx2(g.Get(i), g.Get(i), n),
				g.Sqrt(A.Load(g.Idx2(g.Get(i), g.Get(i), n)))),
		),
		// checksum over the lower triangle
		g.For(i, g.I32(0), g.I32(n),
			g.For(j, g.I32(0), g.Add(g.Get(i), g.I32(1)),
				g.Set(acc, g.Add(g.Get(acc), A.Load(g.Idx2(g.Get(i), g.Get(j), n)))),
			),
		),
		g.Return(g.Get(acc)),
	)

	native := func() uint64 {
		A := make([]float64, n*n)
		nddInit(A, n)
		for i := int32(0); i < n; i++ {
			for j := int32(0); j < i; j++ {
				for k := int32(0); k < j; k++ {
					A[i*n+j] = A[i*n+j] - A[i*n+k]*A[j*n+k]
				}
				A[i*n+j] = A[i*n+j] / A[j*n+j]
			}
			for k := int32(0); k < i; k++ {
				A[i*n+i] = A[i*n+i] - A[i*n+k]*A[i*n+k]
			}
			A[i*n+i] = math.Sqrt(A[i*n+i])
		}
		acc := 0.0
		for i := int32(0); i < n; i++ {
			for j := int32(0); j <= i; j++ {
				acc = acc + A[i*n+j]
			}
		}
		return f64bits(acc)
	}
	return m, native
}

func buildLU(c Class) (*wasm.Module, func() uint64) {
	n := pick(c, 32, 96)

	k := newKernel(wasm.F64)
	A := k.Lay.F64(uint32(n * n))
	f := k.F
	i, j, kk := f.LocalI32("i"), f.LocalI32("j"), f.LocalI32("k")
	acc := f.LocalF64("acc")

	m := k.Finish(
		ddInit(A, i, j, n),
		g.For(i, g.I32(0), g.I32(n),
			g.For(j, g.I32(0), g.Get(i),
				g.For(kk, g.I32(0), g.Get(j),
					A.Store(g.Idx2(g.Get(i), g.Get(j), n),
						g.Sub(A.Load(g.Idx2(g.Get(i), g.Get(j), n)),
							g.Mul(A.Load(g.Idx2(g.Get(i), g.Get(kk), n)),
								A.Load(g.Idx2(g.Get(kk), g.Get(j), n))))),
				),
				A.Store(g.Idx2(g.Get(i), g.Get(j), n),
					g.Div(A.Load(g.Idx2(g.Get(i), g.Get(j), n)),
						A.Load(g.Idx2(g.Get(j), g.Get(j), n)))),
			),
			g.For(j, g.Get(i), g.I32(n),
				g.For(kk, g.I32(0), g.Get(i),
					A.Store(g.Idx2(g.Get(i), g.Get(j), n),
						g.Sub(A.Load(g.Idx2(g.Get(i), g.Get(j), n)),
							g.Mul(A.Load(g.Idx2(g.Get(i), g.Get(kk), n)),
								A.Load(g.Idx2(g.Get(kk), g.Get(j), n))))),
				),
			),
		),
		g.For(i, g.I32(0), g.I32(n),
			g.For(j, g.I32(0), g.I32(n),
				g.Set(acc, g.Add(g.Get(acc), A.Load(g.Idx2(g.Get(i), g.Get(j), n)))),
			),
		),
		g.Return(g.Get(acc)),
	)

	native := func() uint64 {
		A := make([]float64, n*n)
		nddInit(A, n)
		for i := int32(0); i < n; i++ {
			for j := int32(0); j < i; j++ {
				for k := int32(0); k < j; k++ {
					A[i*n+j] = A[i*n+j] - A[i*n+k]*A[k*n+j]
				}
				A[i*n+j] = A[i*n+j] / A[j*n+j]
			}
			for j := i; j < n; j++ {
				for k := int32(0); k < i; k++ {
					A[i*n+j] = A[i*n+j] - A[i*n+k]*A[k*n+j]
				}
			}
		}
		acc := 0.0
		for i := int32(0); i < n; i++ {
			for j := int32(0); j < n; j++ {
				acc = acc + A[i*n+j]
			}
		}
		return f64bits(acc)
	}
	return m, native
}

func buildTrisolv(c Class) (*wasm.Module, func() uint64) {
	n := pick(c, 64, 400)

	k := newKernel(wasm.F64)
	L := k.Lay.F64(uint32(n * n))
	X := k.Lay.F64(uint32(n))
	B := k.Lay.F64(uint32(n))
	f := k.F
	i, j := f.LocalI32("i"), f.LocalI32("j")
	acc := f.LocalF64("acc")

	m := k.Finish(
		g.For(i, g.I32(0), g.I32(n),
			B.Store(g.Get(i), g.Div(g.F64FromI32(g.Get(i)), g.F64(float64(n)))),
			g.For(j, g.I32(0), g.Add(g.Get(i), g.I32(1)),
				L.Store(g.Idx2(g.Get(i), g.Get(j), n),
					g.Add(fdiv(g.Add(g.Get(i), g.Get(j)), n, n), g.F64(1.0))),
			),
		),
		g.For(i, g.I32(0), g.I32(n),
			X.Store(g.Get(i), B.Load(g.Get(i))),
			g.For(j, g.I32(0), g.Get(i),
				X.Store(g.Get(i), g.Sub(X.Load(g.Get(i)),
					g.Mul(L.Load(g.Idx2(g.Get(i), g.Get(j), n)), X.Load(g.Get(j))))),
			),
			X.Store(g.Get(i), g.Div(X.Load(g.Get(i)),
				L.Load(g.Idx2(g.Get(i), g.Get(i), n)))),
		),
		g.For(i, g.I32(0), g.I32(n),
			g.Set(acc, g.Add(g.Get(acc), X.Load(g.Get(i)))),
		),
		g.Return(g.Get(acc)),
	)

	native := func() uint64 {
		L := make([]float64, n*n)
		X := make([]float64, n)
		B := make([]float64, n)
		for i := int32(0); i < n; i++ {
			B[i] = float64(i) / float64(n)
			for j := int32(0); j <= i; j++ {
				L[i*n+j] = nfdiv(i+j, n, n) + 1.0
			}
		}
		for i := int32(0); i < n; i++ {
			X[i] = B[i]
			for j := int32(0); j < i; j++ {
				X[i] = X[i] - L[i*n+j]*X[j]
			}
			X[i] = X[i] / L[i*n+i]
		}
		acc := 0.0
		for i := int32(0); i < n; i++ {
			acc = acc + X[i]
		}
		return f64bits(acc)
	}
	return m, native
}

func buildDurbin(c Class) (*wasm.Module, func() uint64) {
	n := pick(c, 64, 400)

	k := newKernel(wasm.F64)
	R := k.Lay.F64(uint32(n))
	Y := k.Lay.F64(uint32(n))
	Z := k.Lay.F64(uint32(n))
	f := k.F
	i, kk := f.LocalI32("i"), f.LocalI32("k")
	alpha := f.LocalF64("alpha")
	beta := f.LocalF64("beta")
	sum := f.LocalF64("sum")
	acc := f.LocalF64("acc")

	m := k.Finish(
		// r[i] = 1/(i+2): a decaying Toeplitz column keeping the
		// recursion stable (|reflection coefficients| < 1).
		g.For(i, g.I32(0), g.I32(n),
			R.Store(g.Get(i), g.Div(g.F64(1.0),
				g.F64FromI32(g.Add(g.Get(i), g.I32(2))))),
		),
		Y.Store(g.I32(0), g.Neg(R.Load(g.I32(0)))),
		g.Set(beta, g.F64(1.0)),
		g.Set(alpha, g.Neg(R.Load(g.I32(0)))),
		g.For(kk, g.I32(1), g.I32(n),
			g.Set(beta, g.Mul(g.Sub(g.F64(1.0), g.Mul(g.Get(alpha), g.Get(alpha))), g.Get(beta))),
			g.Set(sum, g.F64(0.0)),
			g.For(i, g.I32(0), g.Get(kk),
				g.Set(sum, g.Add(g.Get(sum),
					g.Mul(R.Load(g.Sub(g.Sub(g.Get(kk), g.Get(i)), g.I32(1))),
						Y.Load(g.Get(i))))),
			),
			g.Set(alpha, g.Neg(g.Div(g.Add(R.Load(g.Get(kk)), g.Get(sum)), g.Get(beta)))),
			g.For(i, g.I32(0), g.Get(kk),
				Z.Store(g.Get(i), g.Add(Y.Load(g.Get(i)),
					g.Mul(g.Get(alpha),
						Y.Load(g.Sub(g.Sub(g.Get(kk), g.Get(i)), g.I32(1)))))),
			),
			g.For(i, g.I32(0), g.Get(kk),
				Y.Store(g.Get(i), Z.Load(g.Get(i))),
			),
			Y.Store(g.Get(kk), g.Get(alpha)),
		),
		g.For(i, g.I32(0), g.I32(n),
			g.Set(acc, g.Add(g.Get(acc), Y.Load(g.Get(i)))),
		),
		g.Return(g.Get(acc)),
	)

	native := func() uint64 {
		R := make([]float64, n)
		Y := make([]float64, n)
		Z := make([]float64, n)
		for i := int32(0); i < n; i++ {
			R[i] = 1.0 / float64(i+2)
		}
		Y[0] = -R[0]
		beta := 1.0
		alpha := -R[0]
		for k := int32(1); k < n; k++ {
			beta = (1.0 - alpha*alpha) * beta
			sum := 0.0
			for i := int32(0); i < k; i++ {
				sum = sum + R[k-i-1]*Y[i]
			}
			alpha = -((R[k] + sum) / beta)
			for i := int32(0); i < k; i++ {
				Z[i] = Y[i] + alpha*Y[k-i-1]
			}
			for i := int32(0); i < k; i++ {
				Y[i] = Z[i]
			}
			Y[k] = alpha
		}
		acc := 0.0
		for i := int32(0); i < n; i++ {
			acc = acc + Y[i]
		}
		return f64bits(acc)
	}
	return m, native
}
