package workloads

import (
	"leapsandbounds/internal/wasm"
	g "leapsandbounds/internal/wasmgen"
)

// This file implements the stencil-shaped PolyBench kernels:
// jacobi-1d, jacobi-2d, seidel-2d and fdtd-2d.

func init() {
	register(Spec{Name: "jacobi-1d", Suite: "polybench",
		Desc:    "1-D Jacobi stencil",
		BuildFn: buildJacobi1d})
	register(Spec{Name: "jacobi-2d", Suite: "polybench",
		Desc:    "2-D Jacobi 5-point stencil",
		BuildFn: buildJacobi2d})
	register(Spec{Name: "seidel-2d", Suite: "polybench",
		Desc:    "2-D Gauss-Seidel 9-point stencil",
		BuildFn: buildSeidel2d})
	register(Spec{Name: "fdtd-2d", Suite: "polybench",
		Desc:    "2-D finite-difference time-domain",
		BuildFn: buildFdtd2d})
}

func buildJacobi1d(c Class) (*wasm.Module, func() uint64) {
	n := pick(c, 200, 2000)
	tsteps := pick(c, 20, 100)

	k := newKernel(wasm.F64)
	A := k.Lay.F64(uint32(n))
	B := k.Lay.F64(uint32(n))
	f := k.F
	i, t := f.LocalI32("i"), f.LocalI32("t")
	acc := f.LocalF64("acc")

	fn := float64(n)
	m := k.Finish(
		g.For(i, g.I32(0), g.I32(n),
			A.Store(g.Get(i), g.Div(g.Add(g.F64FromI32(g.Get(i)), g.F64(2.0)), g.F64(fn))),
			B.Store(g.Get(i), g.Div(g.Add(g.F64FromI32(g.Get(i)), g.F64(3.0)), g.F64(fn))),
		),
		g.For(t, g.I32(0), g.I32(tsteps),
			g.For(i, g.I32(1), g.I32(n-1),
				B.Store(g.Get(i), g.Mul(g.F64(0.33333),
					g.Add(g.Add(A.Load(g.Sub(g.Get(i), g.I32(1))), A.Load(g.Get(i))),
						A.Load(g.Add(g.Get(i), g.I32(1)))))),
			),
			g.For(i, g.I32(1), g.I32(n-1),
				A.Store(g.Get(i), g.Mul(g.F64(0.33333),
					g.Add(g.Add(B.Load(g.Sub(g.Get(i), g.I32(1))), B.Load(g.Get(i))),
						B.Load(g.Add(g.Get(i), g.I32(1)))))),
			),
		),
		g.For(i, g.I32(0), g.I32(n),
			g.Set(acc, g.Add(g.Get(acc), A.Load(g.Get(i)))),
		),
		g.Return(g.Get(acc)),
	)

	native := func() uint64 {
		A := make([]float64, n)
		B := make([]float64, n)
		for i := int32(0); i < n; i++ {
			A[i] = (float64(i) + 2.0) / fn
			B[i] = (float64(i) + 3.0) / fn
		}
		for t := int32(0); t < tsteps; t++ {
			for i := int32(1); i < n-1; i++ {
				B[i] = 0.33333 * (A[i-1] + A[i] + A[i+1])
			}
			for i := int32(1); i < n-1; i++ {
				A[i] = 0.33333 * (B[i-1] + B[i] + B[i+1])
			}
		}
		acc := 0.0
		for i := int32(0); i < n; i++ {
			acc = acc + A[i]
		}
		return f64bits(acc)
	}
	return m, native
}

func buildJacobi2d(c Class) (*wasm.Module, func() uint64) {
	n := pick(c, 30, 100)
	tsteps := pick(c, 10, 40)

	k := newKernel(wasm.F64)
	A := k.Lay.F64(uint32(n * n))
	B := k.Lay.F64(uint32(n * n))
	f := k.F
	i, j, t := f.LocalI32("i"), f.LocalI32("j"), f.LocalI32("t")
	acc := f.LocalF64("acc")

	fn := float64(n)
	five := func(arr g.Arr, dst g.Arr) g.Stmt {
		return g.For(i, g.I32(1), g.I32(n-1),
			g.For(j, g.I32(1), g.I32(n-1),
				dst.Store(g.Idx2(g.Get(i), g.Get(j), n), g.Mul(g.F64(0.2),
					g.Add(g.Add(g.Add(g.Add(
						arr.Load(g.Idx2(g.Get(i), g.Get(j), n)),
						arr.Load(g.Idx2(g.Get(i), g.Sub(g.Get(j), g.I32(1)), n))),
						arr.Load(g.Idx2(g.Get(i), g.Add(g.Get(j), g.I32(1)), n))),
						arr.Load(g.Idx2(g.Add(g.Get(i), g.I32(1)), g.Get(j), n))),
						arr.Load(g.Idx2(g.Sub(g.Get(i), g.I32(1)), g.Get(j), n))))),
			),
		)
	}

	m := k.Finish(
		g.For(i, g.I32(0), g.I32(n),
			g.For(j, g.I32(0), g.I32(n),
				A.Store(g.Idx2(g.Get(i), g.Get(j), n),
					g.Div(g.Mul(g.F64FromI32(g.Get(i)), g.Add(g.F64FromI32(g.Get(j)), g.F64(2))), g.F64(fn))),
				B.Store(g.Idx2(g.Get(i), g.Get(j), n),
					g.Div(g.Mul(g.F64FromI32(g.Get(i)), g.Add(g.F64FromI32(g.Get(j)), g.F64(3))), g.F64(fn))),
			),
		),
		g.For(t, g.I32(0), g.I32(tsteps),
			five(A, B),
			five(B, A),
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
		B := make([]float64, n*n)
		for i := int32(0); i < n; i++ {
			for j := int32(0); j < n; j++ {
				A[i*n+j] = float64(i) * (float64(j) + 2) / fn
				B[i*n+j] = float64(i) * (float64(j) + 3) / fn
			}
		}
		five := func(src, dst []float64) {
			for i := int32(1); i < n-1; i++ {
				for j := int32(1); j < n-1; j++ {
					dst[i*n+j] = 0.2 * (src[i*n+j] + src[i*n+j-1] + src[i*n+j+1] +
						src[(i+1)*n+j] + src[(i-1)*n+j])
				}
			}
		}
		for t := int32(0); t < tsteps; t++ {
			five(A, B)
			five(B, A)
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

func buildSeidel2d(c Class) (*wasm.Module, func() uint64) {
	n := pick(c, 30, 100)
	tsteps := pick(c, 6, 24)

	k := newKernel(wasm.F64)
	A := k.Lay.F64(uint32(n * n))
	f := k.F
	i, j, t := f.LocalI32("i"), f.LocalI32("j"), f.LocalI32("t")
	acc := f.LocalF64("acc")

	fn := float64(n)
	idx := func(di, dj int32) g.Expr {
		ie := g.Get(i)
		if di != 0 {
			ie = g.Add(g.Get(i), g.I32(di))
		}
		je := g.Get(j)
		if dj != 0 {
			je = g.Add(g.Get(j), g.I32(dj))
		}
		return g.Idx2(ie, je, n)
	}

	m := k.Finish(
		g.For(i, g.I32(0), g.I32(n),
			g.For(j, g.I32(0), g.I32(n),
				A.Store(g.Idx2(g.Get(i), g.Get(j), n),
					g.Div(g.Add(g.Mul(g.F64FromI32(g.Get(i)), g.Add(g.F64FromI32(g.Get(j)), g.F64(2))), g.F64(2)), g.F64(fn))),
			),
		),
		g.For(t, g.I32(0), g.I32(tsteps),
			g.For(i, g.I32(1), g.I32(n-1),
				g.For(j, g.I32(1), g.I32(n-1),
					A.Store(g.Idx2(g.Get(i), g.Get(j), n),
						g.Div(
							g.Add(g.Add(g.Add(g.Add(g.Add(g.Add(g.Add(g.Add(
								A.Load(idx(-1, -1)), A.Load(idx(-1, 0))), A.Load(idx(-1, 1))),
								A.Load(idx(0, -1))), A.Load(idx(0, 0))), A.Load(idx(0, 1))),
								A.Load(idx(1, -1))), A.Load(idx(1, 0))), A.Load(idx(1, 1))),
							g.F64(9.0))),
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
		for i := int32(0); i < n; i++ {
			for j := int32(0); j < n; j++ {
				A[i*n+j] = (float64(i)*(float64(j)+2) + 2) / fn
			}
		}
		for t := int32(0); t < tsteps; t++ {
			for i := int32(1); i < n-1; i++ {
				for j := int32(1); j < n-1; j++ {
					A[i*n+j] = (A[(i-1)*n+j-1] + A[(i-1)*n+j] + A[(i-1)*n+j+1] +
						A[i*n+j-1] + A[i*n+j] + A[i*n+j+1] +
						A[(i+1)*n+j-1] + A[(i+1)*n+j] + A[(i+1)*n+j+1]) / 9.0
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

func buildFdtd2d(c Class) (*wasm.Module, func() uint64) {
	nx := pick(c, 24, 80)
	ny := pick(c, 28, 90)
	tmax := pick(c, 8, 30)

	k := newKernel(wasm.F64)
	EX := k.Lay.F64(uint32(nx * ny))
	EY := k.Lay.F64(uint32(nx * ny))
	HZ := k.Lay.F64(uint32(nx * ny))
	FICT := k.Lay.F64(uint32(tmax))
	f := k.F
	i, j, t := f.LocalI32("i"), f.LocalI32("j"), f.LocalI32("t")
	acc := f.LocalF64("acc")

	m := k.Finish(
		g.For(i, g.I32(0), g.I32(tmax),
			FICT.Store(g.Get(i), g.F64FromI32(g.Get(i))),
		),
		g.For(i, g.I32(0), g.I32(nx),
			g.For(j, g.I32(0), g.I32(ny),
				EX.Store(g.Idx2(g.Get(i), g.Get(j), ny),
					g.Div(g.Mul(g.F64FromI32(g.Get(i)), g.Add(g.F64FromI32(g.Get(j)), g.F64(1))), g.F64(float64(nx)))),
				EY.Store(g.Idx2(g.Get(i), g.Get(j), ny),
					g.Div(g.Mul(g.F64FromI32(g.Get(i)), g.Add(g.F64FromI32(g.Get(j)), g.F64(2))), g.F64(float64(ny)))),
				HZ.Store(g.Idx2(g.Get(i), g.Get(j), ny),
					g.Div(g.Mul(g.F64FromI32(g.Get(i)), g.Add(g.F64FromI32(g.Get(j)), g.F64(3))), g.F64(float64(nx)))),
			),
		),
		g.For(t, g.I32(0), g.I32(tmax),
			g.For(j, g.I32(0), g.I32(ny),
				EY.Store(g.Idx2(g.I32(0), g.Get(j), ny), FICT.Load(g.Get(t))),
			),
			g.For(i, g.I32(1), g.I32(nx),
				g.For(j, g.I32(0), g.I32(ny),
					EY.Store(g.Idx2(g.Get(i), g.Get(j), ny),
						g.Sub(EY.Load(g.Idx2(g.Get(i), g.Get(j), ny)),
							g.Mul(g.F64(0.5),
								g.Sub(HZ.Load(g.Idx2(g.Get(i), g.Get(j), ny)),
									HZ.Load(g.Idx2(g.Sub(g.Get(i), g.I32(1)), g.Get(j), ny)))))),
				),
			),
			g.For(i, g.I32(0), g.I32(nx),
				g.For(j, g.I32(1), g.I32(ny),
					EX.Store(g.Idx2(g.Get(i), g.Get(j), ny),
						g.Sub(EX.Load(g.Idx2(g.Get(i), g.Get(j), ny)),
							g.Mul(g.F64(0.5),
								g.Sub(HZ.Load(g.Idx2(g.Get(i), g.Get(j), ny)),
									HZ.Load(g.Idx2(g.Get(i), g.Sub(g.Get(j), g.I32(1)), ny)))))),
				),
			),
			g.For(i, g.I32(0), g.I32(nx-1),
				g.For(j, g.I32(0), g.I32(ny-1),
					HZ.Store(g.Idx2(g.Get(i), g.Get(j), ny),
						g.Sub(HZ.Load(g.Idx2(g.Get(i), g.Get(j), ny)),
							g.Mul(g.F64(0.7),
								g.Add(
									g.Sub(EX.Load(g.Idx2(g.Get(i), g.Add(g.Get(j), g.I32(1)), ny)),
										EX.Load(g.Idx2(g.Get(i), g.Get(j), ny))),
									g.Sub(EY.Load(g.Idx2(g.Add(g.Get(i), g.I32(1)), g.Get(j), ny)),
										EY.Load(g.Idx2(g.Get(i), g.Get(j), ny))))))),
				),
			),
		),
		g.For(i, g.I32(0), g.I32(nx),
			g.For(j, g.I32(0), g.I32(ny),
				g.Set(acc, g.Add(g.Get(acc),
					g.Add(HZ.Load(g.Idx2(g.Get(i), g.Get(j), ny)),
						g.Add(EX.Load(g.Idx2(g.Get(i), g.Get(j), ny)),
							EY.Load(g.Idx2(g.Get(i), g.Get(j), ny)))))),
			),
		),
		g.Return(g.Get(acc)),
	)

	native := func() uint64 {
		EX := make([]float64, nx*ny)
		EY := make([]float64, nx*ny)
		HZ := make([]float64, nx*ny)
		FICT := make([]float64, tmax)
		for i := int32(0); i < tmax; i++ {
			FICT[i] = float64(i)
		}
		for i := int32(0); i < nx; i++ {
			for j := int32(0); j < ny; j++ {
				EX[i*ny+j] = float64(i) * (float64(j) + 1) / float64(nx)
				EY[i*ny+j] = float64(i) * (float64(j) + 2) / float64(ny)
				HZ[i*ny+j] = float64(i) * (float64(j) + 3) / float64(nx)
			}
		}
		for t := int32(0); t < tmax; t++ {
			for j := int32(0); j < ny; j++ {
				EY[0*ny+j] = FICT[t]
			}
			for i := int32(1); i < nx; i++ {
				for j := int32(0); j < ny; j++ {
					EY[i*ny+j] = EY[i*ny+j] - 0.5*(HZ[i*ny+j]-HZ[(i-1)*ny+j])
				}
			}
			for i := int32(0); i < nx; i++ {
				for j := int32(1); j < ny; j++ {
					EX[i*ny+j] = EX[i*ny+j] - 0.5*(HZ[i*ny+j]-HZ[i*ny+j-1])
				}
			}
			for i := int32(0); i < nx-1; i++ {
				for j := int32(0); j < ny-1; j++ {
					HZ[i*ny+j] = HZ[i*ny+j] - 0.7*((EX[i*ny+j+1]-EX[i*ny+j])+
						(EY[(i+1)*ny+j]-EY[i*ny+j]))
				}
			}
		}
		acc := 0.0
		for i := int32(0); i < nx; i++ {
			for j := int32(0); j < ny; j++ {
				acc = acc + (HZ[i*ny+j] + (EX[i*ny+j] + EY[i*ny+j]))
			}
		}
		return f64bits(acc)
	}
	return m, native
}
