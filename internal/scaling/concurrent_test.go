package scaling

import (
	"fmt"
	"sync"
	"testing"
)

// TestTemplateCacheConcurrent hammers one TemplateCache from many
// goroutines the way the planners do: concurrent cached plans for overlapping
// services, mixed with Resolve + Solve on private Evals and Stats/Len reads,
// including two parameter variants of the same service racing to recompile
// each other's template. Run under -race in ci.sh; results must stay
// bit-identical to the naive planner throughout.
func TestTemplateCacheConcurrent(t *testing.T) {
	const services = 8
	type variant struct {
		in   Input
		want *Allocation
	}
	vars := make([][2]variant, services)
	for i := 0; i < services; i++ {
		a := randomInput(uint64(i)*2 + 1)
		a.Graph.Service = fmt.Sprintf("svc-%02d", i)
		// Variant B shares the graph but relaxes the SLA — same structure
		// hash, different parameter hash, so A and B plans continuously
		// invalidate and recompile each other's cached template.
		b := a
		sla := a.SLA
		sla.Threshold *= 1.25
		b.SLA = sla
		for v, in := range [2]Input{a, b} {
			want, err := naivePlan(in)
			if err != nil {
				t.Fatalf("svc %d variant %d: naive: %v", i, v, err)
			}
			vars[i][v] = variant{in: in, want: want}
		}
	}

	cache := NewTemplateCache()
	const workers, iters = 16, 60
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var e Eval
			var gamma []float64
			for it := 0; it < iters; it++ {
				v := vars[(w+it)%services][(w+it/3)%2]
				got, err := cachedPlan(cache, v.in)
				if err != nil {
					errs <- fmt.Errorf("worker %d iter %d: %v", w, it, err)
					return
				}
				for ms, want := range v.want.Targets {
					if got.Targets[ms] != want {
						errs <- fmt.Errorf("worker %d iter %d: target[%s] = %v, want %v",
							w, it, ms, got.Targets[ms], want)
						return
					}
				}
				if got.ResourceUsage != v.want.ResourceUsage {
					errs <- fmt.Errorf("worker %d iter %d: usage %v, want %v",
						w, it, got.ResourceUsage, v.want.ResourceUsage)
					return
				}
				// What the incremental planner does instead of Template.Plan: resolve
				// once, then evaluate the template on a vector with its own
				// Eval — here racing other workers on the same template.
				tpl, _, err := cache.Resolve(v.in)
				if err != nil {
					errs <- fmt.Errorf("worker %d iter %d: resolve: %v", w, it, err)
					return
				}
				mss := tpl.Microservices()
				gamma = gamma[:0]
				for _, ms := range mss {
					gamma = append(gamma, v.in.Workloads[ms])
				}
				if err := tpl.Solve(&e, gamma, v.in.CPUUtil, v.in.MemUtil); err != nil {
					errs <- fmt.Errorf("worker %d iter %d: solve: %v", w, it, err)
					return
				}
				for i, ms := range mss {
					if e.Targets[i] != v.want.Targets[ms] || e.Containers[i] != v.want.Containers[at(v.want, ms)] {
						errs <- fmt.Errorf("worker %d iter %d: solved %s to %v/%d, want %v/%d", w, it, ms,
							e.Targets[i], e.Containers[i], v.want.Targets[ms], v.want.Containers[at(v.want, ms)])
						return
					}
				}
				_ = tpl.Matches(v.in)
				_, _ = WindowFingerprint(gamma, v.in.CPUUtil, v.in.MemUtil)
				_ = cache.Stats()
				_ = cache.Len()
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := cache.Len(); n != services {
		t.Fatalf("cache holds %d templates, want %d", n, services)
	}
}
