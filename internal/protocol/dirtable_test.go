package protocol

import (
	"math/rand"
	"testing"

	"spcoh/internal/arch"
)

// tableKeys returns n distinct line addresses, each a multiple of 256
// plus 5 as the lines of one slice of a 16x16 mesh are, some near the top
// of the address space. Every other one starts its probe at slot 0 of the
// initial table, so early probes walk a cluster; the rest fall anywhere.
func tableKeys(n int) []arch.LineAddr {
	d := newDirSlice(nil, 0)
	var out []arch.LineAddr
	for k := uint64(0); len(out) < n; k++ {
		l := arch.LineAddr(k<<8 | 5)
		if k%7 == 3 {
			l |= 1 << 57
		}
		if len(out)%2 == 1 || d.slot(l) == 0 {
			out = append(out, l)
		}
	}
	return out
}

// TestDirTableMatchesMap drives a slice's line table and a Go map with the
// same random materializations and lookups over a partly colliding key
// set, through several doublings, and requires every answer to agree: a
// line keeps its entry (the pointer and what was written through it)
// across growths, a new line gets a fresh idle entry, and a never-touched
// line looks up as nil. A walk of the slots must then visit each line
// exactly once.
func TestDirTableMatchesMap(t *testing.T) {
	keys := tableKeys(600)
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d := newDirSlice(nil, 0)
		ref := make(map[arch.LineAddr]*dirLine)
		limit := 8 + rng.Intn(len(keys)-8) // lines in play: up to 7 doublings
		for op := 0; op < 4000; op++ {
			l := keys[rng.Intn(limit)]
			if rng.Intn(5) < 3 {
				e := d.line(l)
				if want, ok := ref[l]; ok {
					if e != want {
						t.Fatalf("seed %d op %d: line(%#x) = %p, want the entry %p it got first", seed, op, uint64(l), e, want)
					}
					if e.state != dirE || e.owner != arch.NodeID(uint64(l)%arch.MaxNodes) {
						t.Fatalf("seed %d op %d: line(%#x) lost what was written through it: %+v", seed, op, uint64(l), *e)
					}
					continue
				}
				if e.state != dirU || e.owner != arch.None || e.fwd != arch.None || e.busy {
					t.Fatalf("seed %d op %d: new line(%#x) is not idle dirU: %+v", seed, op, uint64(l), *e)
				}
				e.state, e.owner = dirE, arch.NodeID(uint64(l)%arch.MaxNodes)
				ref[l] = e
			} else if got, want := d.lookup(l), ref[l]; got != want {
				t.Fatalf("seed %d op %d: lookup(%#x) = %p, map %p", seed, op, uint64(l), got, want)
			}
			if d.used != len(ref) || 2*d.used > len(d.table) || len(d.table)&(len(d.table)-1) != 0 {
				t.Fatalf("seed %d op %d: %d used of %d slots, map holds %d", seed, op, d.used, len(d.table), len(ref))
			}
		}
		seen := make(map[arch.LineAddr]bool, len(ref))
		for _, s := range d.table {
			if s.e == nil {
				continue
			}
			if seen[s.line] {
				t.Fatalf("seed %d: walk visits %#x twice", seed, uint64(s.line))
			}
			seen[s.line] = true
			if ref[s.line] != s.e {
				t.Fatalf("seed %d: slot holds %#x → %p, map %p", seed, uint64(s.line), s.e, ref[s.line])
			}
		}
		if len(seen) != len(ref) {
			t.Fatalf("seed %d: walk visits %d lines, map holds %d", seed, len(seen), len(ref))
		}
		if len(ref) > 300 && len(d.table) < 1024 {
			t.Fatalf("seed %d: %d lines in %d slots: the table did not grow", seed, len(ref), len(d.table))
		}
	}
}
