package workload_test

// The spec migration's golden reference: the original hand-coded profile
// builders, preserved verbatim. Every embedded spec must replay to the
// byte-identical op stream these produce — same PCs, sync IDs, addresses
// and build-time rng draws — at any (threads, scale, seed). If a spec or
// the interpreter drifts, the predictors' static-identity assumptions
// silently change; this test turns that into a hard failure.

import (
	"fmt"
	"testing"

	"spcoh/internal/sim"
	"spcoh/internal/workload"
)

func scaleIters(iters int, scale float64) int {
	n := int(float64(iters)*scale + 0.5)
	if n < 2 {
		n = 2
	}
	return n
}

func east(i, n int) int { return (i + 1) % n }
func west(i, n int) int { return (i - 1 + n) % n }
func parent(i int) int  { return (i - 1) / 2 }
func child(i, k, n int) int {
	c := 2*i + 1 + k
	if c >= n {
		c = c % n
	}
	return c
}

func produceOn(j int) bool { return j%2 == 0 }

func produceAll(t *workload.T, region, partLines, n int) {
	for c := 0; c < n; c++ {
		t.Produce(region, c, partLines, partLines)
	}
}

type T = workload.T

// legacyBuilders maps each benchmark to its original closure.
var legacyBuilders = map[string]func(n int, scale float64, seed int64) *workload.Program{
	"fmm": func(n int, scale float64, seed int64) *workload.Program {
		b := workload.NewBuilder("fmm", n, seed)
		bars := b.Barriers(20)
		locks := b.Locks(30)
		iters := scaleIters(28, scale)
		cur := make([]int, n)
		for it := 0; it < iters; it++ {
			for j, id := range bars {
				b.Bar(id)
				b.ForAll(func(t *T) {
					i := t.Tid()
					switch {
					case j < 8:
						if produceOn(j) {
							t.Produce(0, parent(i), 4, 4)
						} else {
							t.Consume(0, child(i, 0, n), 4, 5)
							t.Consume(0, child(i, 1, n), 4, 5)
						}
					case j < 16:
						if produceOn(j) {
							t.Produce(1, child(i, 0, n), 4, 4)
							t.Produce(1, child(i, 1, n), 4, 4)
						} else {
							t.Consume(1, parent(i), 4, 5)
							t.Consume(1, east(parent(i), n), 4, 3)
						}
					default:
						if produceOn(j) {
							t.Produce(2, west(i, n), 4, 4)
						} else {
							t.Consume(2, east(i, n), 4, 6)
						}
						t.CS(locks[(i+j*7+1)%len(locks)], 3, 4, 8)
					}
					t.Private(6, 1<<20, &cur[i])
					t.Compute(300)
				})
			}
		}
		return b.Finish(20, 30)
	},
	"lu": func(n int, scale float64, seed int64) *workload.Program {
		b := workload.NewBuilder("lu", n, seed)
		bars := b.Barriers(5)
		locks := b.Locks(7)
		iters := scaleIters(37, scale)
		cur := make([]int, n)
		for it := 0; it < iters; it++ {
			owner := (it / 4) % n
			for j, id := range bars {
				b.Bar(id)
				b.ForAll(func(t *T) {
					i := t.Tid()
					switch {
					case j == 0 && i == owner:
						produceAll(t, 0, 4, n)
					case j == 1 && i != owner:
						t.Consume(0, owner, 4, 6)
					case j == 4:
						t.CS(locks[(i+it)%len(locks)], 1, 2, 4)
					}
					t.Private(6, 1<<20, &cur[i])
					t.Compute(800)
				})
			}
		}
		return b.Finish(5, 7)
	},
	"ocean": func(n int, scale float64, seed int64) *workload.Program {
		b := workload.NewBuilder("ocean", n, seed)
		bars := b.Barriers(20)
		locks := b.Locks(28)
		iters := scaleIters(26, scale)
		cur := make([]int, n)
		for it := 0; it < iters; it++ {
			d := 1 + it%2
			for j, id := range bars {
				b.Bar(id)
				b.ForAll(func(t *T) {
					i := t.Tid()
					if produceOn(j) {
						t.Produce(0, (i+d)%n, 8, 8)
					} else {
						t.Consume(0, (i+n-d)%n, 8, 12)
					}
					if j == 19 {
						t.CS(locks[(i+it*3)%len(locks)], 1, 2, 4)
					}
					t.Private(7, 1<<20, &cur[i])
					t.Compute(250)
				})
			}
		}
		return b.Finish(20, 28)
	},
	"radiosity": func(n int, scale float64, seed int64) *workload.Program {
		b := workload.NewBuilder("radiosity", n, seed)
		bars := b.Barriers(12)
		locks := b.Locks(34)
		iters := scaleIters(95, scale)
		cur := make([]int, n)
		for it := 0; it < iters; it++ {
			for j, id := range bars {
				b.Bar(id)
				b.ForAll(func(t *T) {
					i := t.Tid()
					if produceOn(j) {
						produceAll(t, 0, 1, n)
					} else {
						t.Consume(0, b.Rng().Intn(n), 1, 2)
						t.Consume(0, b.Rng().Intn(n), 1, 2)
					}
					t.CS(locks[(i*3+j)%len(locks)], 2, 4, 6)
					t.Private(5, 1<<20, &cur[i])
					t.Compute(200)
				})
			}
		}
		return b.Finish(12, 34)
	},
	"water-ns": func(n int, scale float64, seed int64) *workload.Program {
		b := workload.NewBuilder("water-ns", n, seed)
		bars := b.Barriers(8)
		locks := b.Locks(20)
		iters := scaleIters(60, scale)
		cur := make([]int, n)
		for it := 0; it < iters; it++ {
			for j, id := range bars {
				b.Bar(id)
				b.ForAll(func(t *T) {
					i := t.Tid()
					if produceOn(j) {
						t.Produce(0, west(i, n), 6, 6)
					} else {
						t.Consume(0, east(i, n), 6, 9)
					}
					t.CS(locks[(i+2*j)%len(locks)], 2, 4, 8)
					t.CS(locks[(i+2*j+1)%len(locks)], 2, 4, 8)
					t.Private(7, 1<<20, &cur[i])
					t.Compute(300)
				})
			}
		}
		return b.Finish(8, 20)
	},
	"cholesky": func(n int, scale float64, seed int64) *workload.Program {
		b := workload.NewBuilder("cholesky", n, seed)
		bars := b.Barriers(27)
		locks := b.Locks(28)
		iters := scaleIters(8, scale)
		cur := make([]int, n)
		for it := 0; it < iters; it++ {
			for j, id := range bars {
				b.Bar(id)
				b.ForAll(func(t *T) {
					i := t.Tid()
					k := 1 + (j/2+it)%2
					if produceOn(j) {
						t.Produce(0, (i+k)%n, 5, 5)
					} else {
						t.Consume(0, (i+n-k)%n, 5, 7)
					}
					t.CS(locks[(i+j)%len(locks)], 2, 4, 6)
					t.Private(12, 1<<20, &cur[i])
					t.Compute(400)
				})
			}
		}
		return b.Finish(27, 28)
	},
	"fft": func(n int, scale float64, seed int64) *workload.Program {
		b := workload.NewBuilder("fft", n, seed)
		bars := b.Barriers(8)
		locks := b.Locks(8)
		iters := scaleIters(3, scale)
		cur := make([]int, n)
		for it := 0; it < iters; it++ {
			for j, id := range bars {
				b.Bar(id)
				b.ForAll(func(t *T) {
					i := t.Tid()
					switch j % 4 {
					case 1:
						produceAll(t, 0, 2, n)
					case 2:
						for k := 1; k <= 8; k++ {
							cnt := 1
							if k <= 4 {
								cnt = 3
							}
							t.Consume(0, (i+k)%n, 2, cnt)
						}
					default:
						t.Private(18, 1<<20, &cur[i])
						if j == 7 {
							t.CS(locks[(i+it)%len(locks)], 1, 2, 4)
						}
					}
					t.Compute(500)
				})
			}
		}
		return b.Finish(8, 8)
	},
	"radix": func(n int, scale float64, seed int64) *workload.Program {
		b := workload.NewBuilder("radix", n, seed)
		bars := b.Barriers(4)
		locks := b.Locks(8)
		iters := scaleIters(9, scale)
		cur := make([]int, n)
		for it := 0; it < iters; it++ {
			for j, id := range bars {
				b.Bar(id)
				b.ForAll(func(t *T) {
					i := t.Tid()
					switch j {
					case 1:
						produceAll(t, 0, 2, n)
					case 2:
						t.Consume(0, (i+1)%n, 2, 3)
						t.Consume(0, (i+5)%n, 2, 3)
					case 3:
						t.CS(locks[(i+it)%len(locks)], 1, 2, 4)
					}
					t.Private(16, 1<<20, &cur[i])
					t.Compute(600)
				})
			}
		}
		return b.Finish(4, 8)
	},
	"water-sp": func(n int, scale float64, seed int64) *workload.Program {
		b := workload.NewBuilder("water-sp", n, seed)
		bars := b.Barriers(1)
		locks := b.Locks(17)
		iters := scaleIters(42, scale)
		cur := make([]int, n)
		for it := 0; it < iters; it++ {
			b.Bar(bars[0])
			b.ForAll(func(t *T) {
				i := t.Tid()
				if it%2 == 0 {
					t.Produce(0, west(i, n), 8, 8)
				} else {
					t.Consume(0, east(i, n), 8, 12)
				}
				t.CS(locks[(i+it)%len(locks)], 1, 4, 8)
				t.Private(6, 1<<20, &cur[i])
				t.Compute(400)
			})
		}
		return b.Finish(1, 17)
	},
	"bodytrack": func(n int, scale float64, seed int64) *workload.Program {
		b := workload.NewBuilder("bodytrack", n, seed)
		bars := b.Barriers(20)
		locks := b.Locks(16)
		iters := scaleIters(23, scale)
		cur := make([]int, n)
		for it := 0; it < iters; it++ {
			for j, id := range bars {
				b.Bar(id)
				b.ForAll(func(t *T) {
					i := t.Tid()
					switch {
					case j < 6:
						prod := (j/2 + 5) % n
						if produceOn(j) {
							if i == prod {
								produceAll(t, 0, 2, n)
							}
						} else if i != prod {
							t.Consume(0, prod, 2, 3)
						}
					case j < 12:
						if produceOn(j) {
							t.Produce(1, east(i, n), 4, 4)
						} else {
							t.Consume(1, west(i, n), 4, 6)
						}
					case j < 16:
						t.CS(locks[(i+j)%len(locks)], 2, 4, 8)
						if !produceOn(j) {
							t.Consume(1, west(i, n), 4, 3)
						}
					default:
						if produceOn(j) {
							if i == 0 {
								produceAll(t, 3, 2, n)
							}
						} else if i != 0 {
							t.Consume(3, 0, 2, 3)
						}
					}
					t.Private(2, 1<<20, &cur[i])
					t.Compute(250)
				})
			}
		}
		return b.Finish(20, 16)
	},
	"fluidanimate": func(n int, scale float64, seed int64) *workload.Program {
		b := workload.NewBuilder("fluidanimate", n, seed)
		bars := b.Barriers(20)
		locks := b.Locks(11)
		iters := scaleIters(55, scale)
		cur := make([]int, n)
		for it := 0; it < iters; it++ {
			for j, id := range bars {
				b.Bar(id)
				b.ForAll(func(t *T) {
					i := t.Tid()
					if produceOn(j) {
						t.Produce(0, west(i, n), 4, 4)
					} else {
						t.Consume(0, east(i, n), 4, 6)
					}
					t.CS(locks[(i+j)%len(locks)], 1, 4, 6)
					t.CS(locks[(i+j+5)%len(locks)], 1, 4, 6)
					t.Private(7, 1<<20, &cur[i])
					t.Compute(200)
				})
			}
		}
		return b.Finish(20, 11)
	},
	"streamcluster": func(n int, scale float64, seed int64) *workload.Program {
		b := workload.NewBuilder("streamcluster", n, seed)
		bars := b.Barriers(24)
		locks := b.Locks(1)
		iters := scaleIters(60, scale)
		cur := make([]int, n)
		for it := 0; it < iters; it++ {
			coord := (it / 4) % n
			for j, id := range bars {
				b.Bar(id)
				b.ForAll(func(t *T) {
					i := t.Tid()
					if produceOn(j) {
						if i == coord {
							produceAll(t, 0, 2, n)
						} else {
							t.Produce(1, east(i, n), 4, 4)
						}
					} else {
						if i != coord {
							t.Consume(0, coord, 2, 3)
						}
						t.Consume(1, west(i, n), 4, 6)
					}
					if j == 11 {
						t.CS(locks[0], 2, 4, 6)
					}
					t.Private(1, 1<<20, &cur[i])
					t.Compute(150)
				})
			}
		}
		return b.Finish(24, 1)
	},
	"vips": func(n int, scale float64, seed int64) *workload.Program {
		b := workload.NewBuilder("vips", n, seed)
		bars := b.Barriers(8)
		locks := b.Locks(14)
		iters := scaleIters(26, scale)
		cur := make([]int, n)
		for it := 0; it < iters; it++ {
			for j, id := range bars {
				b.Bar(id)
				b.ForAll(func(t *T) {
					i := t.Tid()
					if produceOn(j) {
						t.Produce(0, east(i, n), 6, 6)
					} else {
						t.Consume(0, west(i, n), 6, 9)
					}
					if j%4 == 3 {
						t.CS(locks[(i+j)%len(locks)], 1, 4, 6)
					}
					t.Private(5, 1<<20, &cur[i])
					t.Compute(300)
				})
			}
		}
		return b.Finish(8, 14)
	},
	"facesim": func(n int, scale float64, seed int64) *workload.Program {
		b := workload.NewBuilder("facesim", n, seed)
		bars := b.Barriers(3)
		locks := b.Locks(2)
		iters := scaleIters(420, scale)
		cur := make([]int, n)
		for it := 0; it < iters; it++ {
			for j, id := range bars {
				b.Bar(id)
				b.ForAll(func(t *T) {
					i := t.Tid()
					switch j {
					case 0:
						t.Produce(0, east(i, n), 5, 5)
					case 1:
						t.Consume(0, west(i, n), 5, 7)
					default:
						if i%4 == 0 {
							t.CS(locks[(i/4)%2], 1, 4, 6)
						}
					}
					t.Private(5, 1<<20, &cur[i])
					t.Compute(220)
				})
			}
		}
		return b.Finish(3, 2)
	},
	"ferret": func(n int, scale float64, seed int64) *workload.Program {
		b := workload.NewBuilder("ferret", n, seed)
		bars := b.Barriers(6)
		locks := b.Locks(4)
		iters := scaleIters(4, scale)
		cur := make([]int, n)
		for it := 0; it < iters; it++ {
			for j, id := range bars {
				b.Bar(id)
				b.ForAll(func(t *T) {
					i := t.Tid()
					stage := j % 3
					if produceOn(j) {
						t.Produce(stage, east(i, n), 6, 6)
					} else {
						t.Consume(stage, west(i, n), 6, 9)
					}
					t.CS(locks[j%len(locks)], 5, 4, 6)
					t.Private(4, 1<<20, &cur[i])
					t.Compute(350)
				})
			}
		}
		return b.Finish(6, 4)
	},
	"dedup": func(n int, scale float64, seed int64) *workload.Program {
		b := workload.NewBuilder("dedup", n, seed)
		bars := b.Barriers(4)
		locks := b.Locks(3)
		iters := scaleIters(64, scale)
		cur := make([]int, n)
		for it := 0; it < iters; it++ {
			for j, id := range bars {
				b.Bar(id)
				b.ForAll(func(t *T) {
					i := t.Tid()
					if produceOn(j) {
						t.Produce(0, east(i, n), 4, 4)
						produceAll(t, 1, 1, n)
					} else {
						t.Consume(0, west(i, n), 4, 6)
						t.Consume(1, b.Rng().Intn(n), 1, 2)
					}
					t.CS(locks[j%len(locks)], 2, 4, 6)
					t.Private(3, 1<<20, &cur[i])
					t.Compute(250)
				})
			}
		}
		return b.Finish(4, 3)
	},
	"x264": func(n int, scale float64, seed int64) *workload.Program {
		b := workload.NewBuilder("x264", n, seed)
		bars := b.Barriers(3)
		locks := b.Locks(2)
		iters := scaleIters(10, scale)
		cur := make([]int, n)
		for it := 0; it < iters; it++ {
			for j, id := range bars {
				b.Bar(id)
				b.ForAll(func(t *T) {
					i := t.Tid()
					switch j {
					case 0:
						t.Produce(0, east(i, n), 8, 8)
					case 1:
						t.Consume(0, west(i, n), 8, 12)
					default:
						t.CS(locks[i%2], 1, 4, 4)
					}
					t.Private(2, 1<<20, &cur[i])
					t.Compute(300)
				})
			}
		}
		return b.Finish(3, 2)
	},
}

// diffPrograms returns "" when a and b are identical, else a description
// of the first divergence.
func diffPrograms(a, b *workload.Program) string {
	if a.Name != b.Name {
		return fmt.Sprintf("name %q != %q", a.Name, b.Name)
	}
	if a.StaticBarriers != b.StaticBarriers || a.StaticCritSections != b.StaticCritSections {
		return fmt.Sprintf("static counts %d/%d != %d/%d",
			a.StaticBarriers, a.StaticCritSections, b.StaticBarriers, b.StaticCritSections)
	}
	if len(a.Threads) != len(b.Threads) {
		return fmt.Sprintf("thread count %d != %d", len(a.Threads), len(b.Threads))
	}
	for tid := range a.Threads {
		if len(a.Threads[tid]) != len(b.Threads[tid]) {
			return fmt.Sprintf("thread %d length %d != %d", tid, len(a.Threads[tid]), len(b.Threads[tid]))
		}
		for k := range a.Threads[tid] {
			if a.Threads[tid][k] != b.Threads[tid][k] {
				return fmt.Sprintf("thread %d op %d: %+v != %+v",
					tid, k, a.Threads[tid][k], b.Threads[tid][k])
			}
		}
	}
	return ""
}

// TestSpecsByteIdenticalToLegacy is the migration's acceptance gate: every
// embedded spec replays its legacy builder op-for-op at multiple sizes and
// seeds.
func TestSpecsByteIdenticalToLegacy(t *testing.T) {
	names := workload.Builtin().Names()
	if len(names) != len(legacyBuilders) {
		t.Fatalf("%d built-in specs vs %d legacy builders", len(names), len(legacyBuilders))
	}
	for _, name := range names {
		legacy, ok := legacyBuilders[name]
		if !ok {
			t.Fatalf("no legacy builder for %q", name)
		}
		prof, _ := workload.Builtin().Lookup(name)
		for _, seed := range []int64{42, 7} {
			for _, threads := range []int{4, 16} {
				want := legacy(threads, 0.05, seed)
				got, err := workload.FromSpec(prof.Spec, threads, 0.05, seed)
				if err != nil {
					t.Fatalf("%s t%d s%d: %v", name, threads, seed, err)
				}
				if d := diffPrograms(got, want); d != "" {
					t.Errorf("%s t%d s%d: spec diverges from legacy builder: %s",
						name, threads, seed, d)
				}
			}
		}
	}
}

// TestSpecSimResultMatchesLegacy spot-checks end-to-end equality: identical
// op streams must yield identical simulation Results. Three profiles cover
// the rng-consuming, def-using and loop-using spec features.
func TestSpecSimResultMatchesLegacy(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation comparison in full mode only")
	}
	for _, name := range []string{"radiosity", "lu", "fft"} {
		prof, ok := workload.Builtin().Lookup(name)
		if !ok {
			t.Fatalf("missing profile %s", name)
		}
		for _, seed := range []int64{42, 7} {
			want, err := sim.Run(legacyBuilders[name](16, 0.05, seed), sim.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			spec, err := workload.FromSpec(prof.Spec, 16, 0.05, seed)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sim.Run(spec, sim.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			gs, ws := fmt.Sprintf("%+v", *got), fmt.Sprintf("%+v", *want)
			if gs != ws {
				t.Errorf("%s seed %d: sim result differs:\n got %s\nwant %s", name, seed, gs, ws)
			}
		}
	}
}
