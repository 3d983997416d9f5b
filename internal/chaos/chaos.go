// Package chaos is a seeded, deterministic fault-injection engine for the
// Erms substrate. A Schedule is generated up front from a single seed (same
// seed ⇒ byte-identical schedule, matching the repository's determinism
// contract) and enumerates faults across every layer the controller depends
// on:
//
//   - host failures and recoveries (kube fail-node / recover-node, with the
//     in-window capacity loss visible to the simulator before the control
//     plane reacts);
//   - container crashes / OOM kills (mid-window removal on live queues via
//     sim.Failure);
//   - latency/interference spikes (transient background inflation through
//     the cluster.InterferenceModel path);
//   - observability gaps (dropped trace samples and metric windows the
//     profiler must tolerate);
//   - transient control-plane operation failures (plan/apply errors the
//     resilient reconciler retries).
//
// The Injector enacts a Schedule window by window against a kube
// orchestrator and implements core's ChaosHook, so the same schedule drives
// both the substrate faults and the control-loop faults.
package chaos

import (
	"fmt"
	"sort"
	"strings"

	"erms/internal/stats"
	"erms/internal/workload"
)

// Kind enumerates fault classes.
type Kind int

// Fault kinds.
const (
	// KindHostFail kills a host mid-window; the control plane detects the
	// dead node at the next window boundary and the host recovers
	// DownWindows windows later.
	KindHostFail Kind = iota
	// KindContainerCrash removes one container of a microservice mid-window
	// (an OOM kill), optionally restarting within the window.
	KindContainerCrash
	// KindLatencySpike transiently raises a host's background interference
	// for one window (a noisy batch neighbour), inflating service times via
	// the interference model.
	KindLatencySpike
	// KindObsGap drops the window's metric samples and trace spans before
	// they reach the control plane.
	KindObsGap
	// KindOpFault makes a control-plane operation ("plan" or "apply") fail
	// transiently for Count consecutive attempts in the window.
	KindOpFault
)

func (k Kind) String() string {
	switch k {
	case KindHostFail:
		return "host-fail"
	case KindContainerCrash:
		return "crash"
	case KindLatencySpike:
		return "spike"
	case KindObsGap:
		return "obs-gap"
	case KindOpFault:
		return "op-fault"
	default:
		return "unknown"
	}
}

// Fault is one scheduled fault. Which fields are meaningful depends on Kind.
type Fault struct {
	Window int
	Kind   Kind
	// Host is the target node (KindHostFail, KindLatencySpike).
	Host int
	// Microservice / Index select the crashing container (KindContainerCrash;
	// Index is by ID order and silently skipped if out of range at injection
	// time).
	Microservice string
	Index        int
	// AtFrac is the fault instant as a fraction of the window.
	AtFrac float64
	// RecoverFrac is the in-window restart instant for crashes (0 = the
	// container stays down for the rest of the window).
	RecoverFrac float64
	// DownWindows is how many windows a failed host stays down
	// (KindHostFail).
	DownWindows int
	// Severity is the added background interference (KindLatencySpike).
	Severity workload.Interference
	// Op and Count describe a control-plane fault (KindOpFault): Op is
	// "plan" or "apply", Count the number of consecutive failing attempts.
	Op    string
	Count int
}

// Config parameterizes schedule generation. Per-window fault probabilities
// are independent draws; everything is derived from Seed alone.
type Config struct {
	Seed      uint64
	Windows   int
	WindowMin float64
	Hosts     int
	// Microservices are the crash candidates (sorted internally so the
	// schedule does not depend on caller order).
	Microservices []string

	// PHostFail is the per-window probability of one host failure.
	PHostFail float64
	// DownWindows is how long a failed host stays down (default 2).
	DownWindows int
	// MaxHostsDown caps concurrently failed hosts (default Hosts/4, min 1).
	MaxHostsDown int

	// PCrash is the per-window probability of each of CrashesPerWindow
	// container crashes (default 1 crash draw per window).
	PCrash           float64
	CrashesPerWindow int

	// PSpike is the per-window probability of a latency spike hitting
	// SpikeHosts hosts with Severity extra background.
	PSpike     float64
	SpikeHosts int
	Severity   workload.Interference

	// PObsGap is the per-window probability of an observability gap.
	PObsGap float64

	// POpFail is the per-window probability of a transient control-plane
	// failure; the failing op alternates by draw and fails for 1..OpFailures
	// consecutive attempts.
	POpFail    float64
	OpFailures int
}

// Default returns the standard fault schedule configuration used by the
// fault experiment (fig22): roughly one substrate fault per window on
// average, control-plane faults sized to be absorbed by the default retry
// budget, and occasional observability gaps.
func Default(seed uint64, windows int, windowMin float64, hosts int, microservices []string) Config {
	return Config{
		Seed:          seed,
		Windows:       windows,
		WindowMin:     windowMin,
		Hosts:         hosts,
		Microservices: microservices,

		PHostFail:   0.25,
		DownWindows: 2,

		PCrash:           0.5,
		CrashesPerWindow: 2,

		PSpike:     0.3,
		SpikeHosts: 3,
		Severity:   workload.Interference{CPU: 0.25, Mem: 0.2},

		PObsGap: 0.15,

		POpFail:    0.25,
		OpFailures: 2,
	}
}

func (c Config) withDefaults() Config {
	if c.WindowMin <= 0 {
		c.WindowMin = 1.5
	}
	if c.DownWindows <= 0 {
		c.DownWindows = 2
	}
	if c.MaxHostsDown <= 0 {
		c.MaxHostsDown = c.Hosts / 4
		if c.MaxHostsDown < 1 {
			c.MaxHostsDown = 1
		}
	}
	if c.CrashesPerWindow <= 0 {
		c.CrashesPerWindow = 1
	}
	if c.SpikeHosts <= 0 {
		c.SpikeHosts = 1
	}
	if c.OpFailures <= 0 {
		c.OpFailures = 1
	}
	return c
}

// Schedule is a generated fault timeline.
type Schedule struct {
	Cfg    Config
	Faults []Fault

	byWindow map[int][]Fault
}

// NewSchedule builds a schedule from hand-authored faults (tests, replayed
// incidents). Generate is the usual entry point.
func NewSchedule(cfg Config, faults []Fault) *Schedule {
	s := &Schedule{Cfg: cfg.withDefaults(), Faults: faults}
	s.byWindow = make(map[int][]Fault)
	for _, f := range faults {
		s.byWindow[f.Window] = append(s.byWindow[f.Window], f)
	}
	return s
}

// Generate derives the fault schedule from cfg.Seed. The draw order is fixed
// (host failure, crashes, spike, observability gap, op fault — window by
// window), so two schedules from the same Config are identical.
func Generate(cfg Config) (*Schedule, error) {
	cfg = cfg.withDefaults()
	if cfg.Windows <= 0 {
		return nil, fmt.Errorf("chaos: need at least one window, got %d", cfg.Windows)
	}
	if cfg.Hosts <= 0 {
		return nil, fmt.Errorf("chaos: need at least one host, got %d", cfg.Hosts)
	}
	mss := append([]string(nil), cfg.Microservices...)
	sort.Strings(mss)

	rng := stats.NewRNG(cfg.Seed)
	s := &Schedule{Cfg: cfg}
	downUntil := make(map[int]int) // host -> first window it is up again
	for w := 0; w < cfg.Windows; w++ {
		nDown := 0
		for _, until := range downUntil {
			if until > w {
				nDown++
			}
		}
		if rng.Float64() < cfg.PHostFail {
			h := rng.Intn(cfg.Hosts)
			if downUntil[h] <= w && nDown < cfg.MaxHostsDown {
				// Detection at w+1, recovery DownWindows later.
				downUntil[h] = w + 1 + cfg.DownWindows
				s.Faults = append(s.Faults, Fault{
					Window: w, Kind: KindHostFail, Host: h,
					AtFrac:      0.2 + 0.6*rng.Float64(),
					DownWindows: cfg.DownWindows,
				})
			}
		}
		for i := 0; i < cfg.CrashesPerWindow; i++ {
			if rng.Float64() >= cfg.PCrash || len(mss) == 0 {
				continue
			}
			f := Fault{
				Window: w, Kind: KindContainerCrash,
				Microservice: mss[rng.Intn(len(mss))],
				Index:        rng.Intn(8),
				AtFrac:       0.1 + 0.7*rng.Float64(),
			}
			if rng.Float64() < 0.5 {
				f.RecoverFrac = f.AtFrac + (0.95-f.AtFrac)*rng.Float64()
			}
			s.Faults = append(s.Faults, f)
		}
		if rng.Float64() < cfg.PSpike {
			for i := 0; i < cfg.SpikeHosts; i++ {
				s.Faults = append(s.Faults, Fault{
					Window: w, Kind: KindLatencySpike,
					Host:     rng.Intn(cfg.Hosts),
					Severity: cfg.Severity,
				})
			}
		}
		if rng.Float64() < cfg.PObsGap {
			s.Faults = append(s.Faults, Fault{Window: w, Kind: KindObsGap})
		}
		if rng.Float64() < cfg.POpFail {
			op := "plan"
			if rng.Intn(2) == 1 {
				op = "apply"
			}
			s.Faults = append(s.Faults, Fault{
				Window: w, Kind: KindOpFault,
				Op: op, Count: 1 + rng.Intn(cfg.OpFailures),
			})
		}
	}
	s.byWindow = make(map[int][]Fault)
	for _, f := range s.Faults {
		s.byWindow[f.Window] = append(s.byWindow[f.Window], f)
	}
	return s, nil
}

// ByWindow returns the faults scheduled in window w, in generation order.
func (s *Schedule) ByWindow(w int) []Fault { return s.byWindow[w] }

// Summary renders window w's faults as a compact deterministic token list
// ("-" for a quiet window or a nil schedule), suitable for experiment tables.
func (s *Schedule) Summary(w int) string {
	if s == nil {
		return "-"
	}
	fs := s.byWindow[w]
	if len(fs) == 0 {
		return "-"
	}
	parts := make([]string, 0, len(fs))
	for _, f := range fs {
		switch f.Kind {
		case KindHostFail:
			parts = append(parts, fmt.Sprintf("host%d↓", f.Host))
		case KindContainerCrash:
			parts = append(parts, fmt.Sprintf("crash(%s)", f.Microservice))
		case KindLatencySpike:
			parts = append(parts, fmt.Sprintf("spike(h%d)", f.Host))
		case KindObsGap:
			parts = append(parts, "obs-gap")
		case KindOpFault:
			parts = append(parts, fmt.Sprintf("%s×%d", f.Op, f.Count))
		}
	}
	return strings.Join(parts, " ")
}

// String renders the whole schedule, one line per window with faults.
func (s *Schedule) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "chaos schedule: seed=%d windows=%d hosts=%d faults=%d\n",
		s.Cfg.Seed, s.Cfg.Windows, s.Cfg.Hosts, len(s.Faults))
	for w := 0; w < s.Cfg.Windows; w++ {
		if len(s.byWindow[w]) == 0 {
			continue
		}
		fmt.Fprintf(&sb, "  w%-3d %s\n", w, s.Summary(w))
	}
	return sb.String()
}
