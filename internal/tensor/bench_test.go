package tensor

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// randMat fills a matrix with seeded Gaussian values.
func randMat(r, c int, seed int64) Mat {
	rng := rand.New(rand.NewSource(seed))
	m := New(r, c)
	for i := range m.Data {
		m.Data[i] = float32(rng.NormFloat64())
	}
	return m
}

// benchParallelisms are the worker counts every kernel benchmark sweeps:
// serial, and the machine's GOMAXPROCS.
func benchParallelisms() []int {
	if n := runtime.GOMAXPROCS(0); n > 1 {
		return []int{1, n}
	}
	return []int{1}
}

// benchAtParallelism runs body under each worker count as a sub-benchmark.
func benchAtParallelism(b *testing.B, body func(b *testing.B)) {
	for _, par := range benchParallelisms() {
		b.Run(map[bool]string{true: "p1", false: "pN"}[par == 1], func(b *testing.B) {
			prev := SetParallelism(par)
			defer SetParallelism(prev)
			body(b)
		})
	}
}

// Prefill shape: a tall activation against a square projection.
func BenchmarkMatMulPrefill(b *testing.B) {
	a := randMat(128, 512, 1)
	w := randMat(512, 512, 2)
	benchAtParallelism(b, func(b *testing.B) {
		b.SetBytes(int64(a.R) * int64(a.C) * int64(w.C) * 4)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := MatMul(a, w); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Decode shape: one row against a wide FFN matrix (column-tiled path).
func BenchmarkMatMulDecode(b *testing.B) {
	a := randMat(1, 512, 3)
	w := randMat(512, 2048, 4)
	benchAtParallelism(b, func(b *testing.B) {
		b.SetBytes(int64(a.C) * int64(w.C) * 4)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := MatMul(a, w); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Logit shape: one row against a token table (MatMulT row split).
func BenchmarkMatMulTLogits(b *testing.B) {
	a := randMat(1, 512, 5)
	table := randMat(8192, 512, 6)
	benchAtParallelism(b, func(b *testing.B) {
		b.SetBytes(int64(a.C) * int64(table.R) * 4)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := MatMulT(a, table); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkLayerNorm(b *testing.B) {
	x := randMat(256, 1024, 7)
	gamma := make([]float32, x.C)
	beta := make([]float32, x.C)
	for i := range gamma {
		gamma[i] = 1
	}
	out := New(x.R, x.C)
	benchAtParallelism(b, func(b *testing.B) {
		b.SetBytes(int64(len(x.Data)) * 4)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := LayerNormInto(x, gamma, beta, 1e-5, out); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// GELU at bench-ooc's FFN activation shapes: one decode row and a
// 128-token prefill, 1536 wide, in ns per element, through the scalar
// body (math.Tanh per element) and the AVX one (geluAVX), forced by
// wideAccumulate. The input is restored before every call (a copy, ~0.1
// ns per element), because GELU applied in place over and over walks
// its input to the fixed points 0 and x, where tanh takes its cheap
// branches.
func BenchmarkGELU(b *testing.B) {
	probed := wideAccumulate
	defer func() { wideAccumulate = probed }()
	for _, rows := range []int{1, 128} {
		src := randMat(rows, 1536, 8)
		x := New(rows, 1536)
		for _, body := range []struct {
			name string
			avx  bool
		}{{"scalar", false}, {"avx", true}} {
			b.Run(fmt.Sprintf("%dx1536/%s", rows, body.name), func(b *testing.B) {
				if body.avx && !probed {
					b.Skip("no AVX on this host")
				}
				wideAccumulate = body.avx
				benchAtParallelism(b, func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						copy(x.Data, src.Data)
						x.GELU()
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(x.Data)), "ns/elem")
				})
			})
		}
	}
}

// The three bench-ooc shapes (hidden 384, FFN 1536, vocab 2048) at one
// worker, beside bench/'s tensor.gemm_prefill_ms, tensor.gemv_decode_us
// and tensor.logits_us: the 128-token prefill GEMM and the decode GEMV
// against the first FFN matrix, and one row of logits.
func BenchmarkBenchOOCShapes(b *testing.B) {
	prev := SetParallelism(1)
	defer SetParallelism(prev)
	w := randMat(384, 1536, 9)
	table := randMat(2048, 384, 10)
	for _, bc := range []struct {
		name string
		a, b Mat
		into func(a, b, out Mat) error
		outC int
	}{
		{"gemm_prefill", randMat(128, 384, 11), w, MatMulInto, w.C},
		{"gemv_decode", randMat(1, 384, 12), w, MatMulInto, w.C},
		{"logits", randMat(1, 384, 13), table, MatMulTInto, table.R},
	} {
		b.Run(bc.name, func(b *testing.B) {
			out := New(bc.a.R, bc.outC)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := bc.into(bc.a, bc.b, out); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// The three 128-token prefill GEMMs of bench-ooc through MatMulInto, in
// G multiply-adds/s: the two-row SSE2 path and each register tile (tile:
// 6x16 on AVX, tile512: 6x32 on AVX-512) at one worker, and the tiles at
// two, split over columns — half of the tiles' win is that each worker
// streams only its share of the weights.
func BenchmarkPrefillBodies(b *testing.B) {
	defer SetParallelism(Parallelism())
	defer func() { wideAccumulate, wide512 = probedAVX, probed512 }()
	for _, shape := range []struct{ k, c int }{{384, 384}, {384, 1536}, {1536, 384}} {
		a, w := randMat(128, shape.k, 18), randMat(shape.k, shape.c, 19)
		out := New(a.R, w.C)
		for _, body := range []struct {
			name          string
			tile, tile512 bool
			workers       int
		}{{"sse2", false, false, 1}, {"tile", true, false, 1}, {"tile512", true, true, 1}, {"tile-p2", true, false, 2}, {"tile512-p2", true, true, 2}} {
			b.Run(fmt.Sprintf("128x%dx%d/%s", shape.k, shape.c, body.name), func(b *testing.B) {
				if body.tile && !probedAVX || body.tile512 && !probed512 {
					b.Skip("the host lacks this tile's vector level")
				}
				wideAccumulate, wide512 = body.tile, body.tile512
				SetParallelism(body.workers)
				for i := 0; i < b.N; i++ {
					if err := MatMulInto(a, w, out); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(a.R*a.C*w.C)*float64(b.N)/float64(b.Elapsed().Nanoseconds()), "GMAC/s")
			})
		}
	}
}

// The decode GEMVs of bench-ooc (Q/K/V/out 384x384, FFN up 384x1536, FFN
// down 1536x384) on one goroutine against the column split over the pool
// — dense, and fused over the packed weights. EXPERIMENTS.md records why
// this is here: on two cores waking the pool worker costs more than the
// half of a decode GEMV it takes.
func BenchmarkGemvSplit(b *testing.B) {
	for _, shape := range []struct{ k, c int }{{384, 384}, {384, 1536}, {1536, 384}} {
		a := randMat(1, shape.k, 14)
		p, w := packMat(b, randMat(shape.k, shape.c, 15), 64)
		out := New(1, shape.c)
		for _, kernel := range []struct {
			name string
			run  func() error
		}{
			{"dense", func() error { return MatMulInto(a, w, out) }},
			{"fused", func() error { return MatMulQ4Into(a, p, shape.c, out) }},
		} {
			b.Run(fmt.Sprintf("1x%dx%d/%s", shape.k, shape.c, kernel.name), func(b *testing.B) {
				benchAtParallelism(b, func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						if err := kernel.run(); err != nil {
							b.Fatal(err)
						}
					}
				})
			})
		}
	}
}

// Where the fused kernel stops paying, and what it runs below that: per
// stacked-row count, on the bench-ooc shapes and the fleet model's 64x64
// and 64x256, "fused" is MatMulQ4Into as the host runs it and "slab"
// dequantizes the tensor once into a slab and runs the dense kernel —
// the engine's two ways through a packed projection, whose crossover
// sets fusedMaxRows (internal/infer). At two to eight rows two more
// ways: "scratch" is MatMulQ4Into with the stacked in-register GEMV off
// (the shared stack-scratch decode, every host without AVX-512) and
// "rows" one one-row call per row, each decoding its weights in
// registers again.
func BenchmarkQ4Crossover(b *testing.B) {
	defer func() { quantWide512 = probedQ512 }()
	type path struct {
		name string
		wide bool // quant's wide512 while it runs
		run  func() error
	}
	for _, shape := range []struct{ k, c int }{{384, 384}, {384, 1536}, {1536, 384}, {64, 64}, {64, 256}} {
		p, _ := packMat(b, randMat(shape.k, shape.c, 16), 64)
		slab := make([]float32, shape.k*shape.c)
		for _, r := range []int{1, 2, 3, 5, 8, 16, 32, 128} {
			a := randMat(r, shape.k, 17)
			out := New(r, shape.c)
			fused := func() error { return MatMulQ4Into(a, p, shape.c, out) }
			paths := []path{
				{"fused", probedQ512, fused},
				{"slab", probedQ512, func() error {
					return MatMulInto(a, Mat{R: shape.k, C: shape.c, Data: p.DequantizeInto(slab)}, out)
				}},
			}
			if r > 1 && r <= tallGEMMRows {
				paths = append(paths, path{"scratch", false, fused}, path{"rows", probedQ512, func() error {
					for i := 0; i < r; i++ {
						if err := MatMulQ4Into(Mat{R: 1, C: a.C, Data: a.Row(i)}, p, shape.c, Mat{R: 1, C: out.C, Data: out.Row(i)}); err != nil {
							return err
						}
					}
					return nil
				}})
			}
			for _, path := range paths {
				b.Run(fmt.Sprintf("%dx%dx%d/%s", r, shape.k, shape.c, path.name), func(b *testing.B) {
					quantWide512 = path.wide
					benchAtParallelism(b, func(b *testing.B) {
						for i := 0; i < b.N; i++ {
							if err := path.run(); err != nil {
								b.Fatal(err)
							}
						}
					})
				})
			}
		}
	}
}

// The logits of bench-ooc against its 4-bit token table (2048 rows of
// 384, groups of 64) through MatMulTQ4Into, at the stacked row counts a
// decode step reaches: "lanes" is the AVX-512 body (quant.Packed.GemvT,
// sixteen table rows a call), "rows4" the four-row scratch path every
// host without AVX-512 takes; each at one worker and at GOMAXPROCS.
func BenchmarkLogitsQ4(b *testing.B) {
	defer func() { quantWide512 = probedQ512 }()
	p, _ := packMat(b, randMat(2048, 384, 20), 64)
	for _, r := range []int{1, 2, 5, 8} {
		a := randMat(r, 384, 21)
		out := New(r, 2048)
		for _, body := range []struct {
			name string
			wide bool
		}{{"lanes", true}, {"rows4", false}} {
			b.Run(fmt.Sprintf("%dx384x2048/%s", r, body.name), func(b *testing.B) {
				if body.wide && !probedQ512 {
					b.Skip("the host lacks AVX-512")
				}
				quantWide512 = body.wide
				benchAtParallelism(b, func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						if err := MatMulTQ4Into(a, p, out); err != nil {
							b.Fatal(err)
						}
					}
				})
			})
		}
	}
}
