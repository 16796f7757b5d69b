package workload

import (
	"embed"
	"fmt"
	"sync"

	"spcoh/internal/scenario"
)

// Profile is one benchmark stand-in: a scenario spec plus presentation
// metadata. Profiles are pure data — building a program goes through the
// spec interpreter (FromSpec), so a profile and the spec file it came from
// are interchangeable.
type Profile struct {
	Name  string
	Suite string // "splash2" or "parsec"

	// Spec is the declarative scenario the profile builds from.
	Spec *scenario.Spec

	// Paper holds the source paper's Table 1 reference statistics.
	Paper scenario.PaperStats
}

// Program constructs the op-stream program at the given size.
func (p Profile) Program(threads int, scale float64, seed int64) (*Program, error) {
	if p.Spec == nil {
		return nil, fmt.Errorf("profile %q has no spec", p.Name)
	}
	return FromSpec(p.Spec, threads, scale, seed)
}

// Registry is an explicit, order-preserving profile collection. Unlike the
// old init()-registered closure table there is no package-level mutation:
// callers construct a registry, register profiles (collecting errors), and
// pass it where needed. The built-in benchmarks live in their own registry
// returned by Builtin.
type Registry struct {
	byName map[string]Profile
	order  []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]Profile{}}
}

// Register adds a profile, validating its spec. Registration order is the
// registry's presentation order.
func (r *Registry) Register(p Profile) error {
	if p.Name == "" {
		return fmt.Errorf("workload: register: empty profile name")
	}
	if _, dup := r.byName[p.Name]; dup {
		return fmt.Errorf("workload: register %q: duplicate", p.Name)
	}
	if p.Spec == nil {
		return fmt.Errorf("workload: register %q: nil spec", p.Name)
	}
	if err := p.Spec.Validate(); err != nil {
		return fmt.Errorf("workload: register %q: %w", p.Name, err)
	}
	if p.Spec.Name != p.Name {
		return fmt.Errorf("workload: register %q: spec is named %q", p.Name, p.Spec.Name)
	}
	r.byName[p.Name] = p
	r.order = append(r.order, p.Name)
	return nil
}

// RegisterSpec wraps a validated spec into a Profile and registers it.
func (r *Registry) RegisterSpec(s *scenario.Spec) error {
	p := Profile{Name: s.Name, Suite: s.Suite, Spec: s}
	if s.Paper != nil {
		p.Paper = *s.Paper
	}
	return r.Register(p)
}

// Lookup returns the named profile.
func (r *Registry) Lookup(name string) (Profile, bool) {
	p, ok := r.byName[name]
	return p, ok
}

// Names returns the registered names in registration order.
func (r *Registry) Names() []string {
	out := make([]string, len(r.order))
	copy(out, r.order)
	return out
}

// Profiles returns every profile in registration order.
func (r *Registry) Profiles() []Profile {
	out := make([]Profile, 0, len(r.order))
	for _, n := range r.order {
		out = append(out, r.byName[n])
	}
	return out
}

// specFiles embeds the built-in benchmark scenario specs. File order (and
// thus registration order) follows the paper's Table 1 presentation order
// via the numeric prefix, not the filesystem sort of the names.
//
//go:embed specs/*.json
var specFiles embed.FS

// builtin loads the embedded specs exactly once. The embedded set is part
// of the build, so a failure here is a programming error: panic rather
// than limp along with a partial benchmark table.
var builtin = sync.OnceValue(func() *Registry {
	r := NewRegistry()
	entries, err := specFiles.ReadDir("specs")
	if err != nil {
		panic("workload: embedded specs: " + err.Error())
	}
	for _, e := range entries {
		data, err := specFiles.ReadFile("specs/" + e.Name())
		if err != nil {
			panic("workload: embedded specs: " + err.Error())
		}
		s, err := scenario.Parse(data)
		if err != nil {
			panic("workload: " + e.Name() + ": " + err.Error())
		}
		if err := r.RegisterSpec(s); err != nil {
			panic(err.Error())
		}
	}
	return r
})

// Builtin returns the registry of the 17 SPLASH-2/PARSEC benchmark
// stand-ins, loaded from the embedded spec files.
func Builtin() *Registry { return builtin() }
