// Package metrics is a small in-process time-series store standing in for
// Prometheus: the Erms Tracing Coordinator records OS-level metrics (host and
// container CPU/memory utilization) here, and the profiling and provisioning
// modules query it back out (§5.1).
package metrics

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"erms/internal/cluster"
	"erms/internal/stats"
)

// Point is one observation of a series.
type Point struct {
	T float64 // timestamp in minutes
	V float64
}

// Series is an append-only time series.
type Series struct {
	Name   string
	points []Point
}

// Points returns a copy of the series data.
func (s *Series) Points() []Point {
	out := make([]Point, len(s.points))
	copy(out, s.points)
	return out
}

// Len returns the number of points.
func (s *Series) Len() int { return len(s.points) }

// add inserts a point after every point with T <= t, so the series stays
// sorted by timestamp and equal timestamps keep arrival order. In-order
// appends (the common case) are O(1).
func (s *Series) add(t, v float64) {
	if n := len(s.points); n == 0 || s.points[n-1].T <= t {
		s.points = append(s.points, Point{T: t, V: v})
		return
	}
	i := sort.Search(len(s.points), func(i int) bool { return s.points[i].T > t })
	s.points = append(s.points, Point{})
	copy(s.points[i+1:], s.points[i:])
	s.points[i] = Point{T: t, V: v}
}

// set is add for a gauge that is sampled at most once per timestamp: a point
// already recorded at t is overwritten (the latest of them, had Append put
// several there), so re-sampling at one timestamp does not grow the series.
func (s *Series) set(t, v float64) {
	i := sort.Search(len(s.points), func(i int) bool { return s.points[i].T > t })
	if i > 0 && s.points[i-1].T == t {
		s.points[i-1].V = v
		return
	}
	s.add(t, v)
}

// Store holds named time series. It is safe for concurrent use.
type Store struct {
	mu     sync.RWMutex
	series map[string]*Series

	// The series CollectCluster writes, resolved once per host and per
	// microservice: a scrape of a 2000-host cluster touches ~19k of them, and
	// formatting and hashing that many keys was most of its cost.
	hostGauges []hostSeries // by host ID
	msGauges   map[string]*msSeries
}

type hostSeries struct{ cpu, mem *Series }

type msSeries struct {
	cpu, mem, count *Series
	// Per-scrape accumulators over the hosts of the microservice's containers.
	cpuUtil, memUtil stats.Moments
}

// NewStore creates an empty store.
func NewStore() *Store {
	return &Store{series: make(map[string]*Series), msGauges: make(map[string]*msSeries)}
}

// Key builds a canonical series name from a metric name and labels, e.g.
// Key("host_cpu", "host", "3") -> `host_cpu{host="3"}`.
func Key(name string, labels ...string) string {
	if len(labels) == 0 {
		return name
	}
	if len(labels)%2 != 0 {
		panic("metrics: Key labels must be key/value pairs")
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i := 0; i < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", labels[i], labels[i+1])
	}
	b.WriteByte('}')
	return b.String()
}

// Append records one observation. Points are kept sorted by timestamp:
// in-order appends (the common case) are O(1), while a late point is
// inserted at its timestamp so Range, Latest, and the quantile helpers stay
// correct. Insertion is stable — among equal timestamps, arrival order is
// preserved and Latest reports the most recently appended.
func (st *Store) Append(key string, t, v float64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.seriesLocked(key).add(t, v)
}

// seriesLocked returns the named series, creating it if needed. The caller
// holds st.mu for writing.
func (st *Store) seriesLocked(key string) *Series {
	s, ok := st.series[key]
	if !ok {
		s = &Series{Name: key}
		st.series[key] = s
	}
	return s
}

// Names returns all series names, sorted.
func (st *Store) Names() []string {
	st.mu.RLock()
	defer st.mu.RUnlock()
	out := make([]string, 0, len(st.series))
	for k := range st.series {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Range returns the points of a series with t0 <= T < t1.
func (st *Store) Range(key string, t0, t1 float64) []Point {
	st.mu.RLock()
	defer st.mu.RUnlock()
	s, ok := st.series[key]
	if !ok {
		return nil
	}
	lo := sort.Search(len(s.points), func(i int) bool { return s.points[i].T >= t0 })
	hi := sort.Search(len(s.points), func(i int) bool { return s.points[i].T >= t1 })
	out := make([]Point, hi-lo)
	copy(out, s.points[lo:hi])
	return out
}

// Latest returns the most recent point of a series.
func (st *Store) Latest(key string) (Point, bool) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	s, ok := st.series[key]
	if !ok || len(s.points) == 0 {
		return Point{}, false
	}
	return s.points[len(s.points)-1], true
}

// MeanInRange returns the mean value of a series over [t0, t1), and false if
// the window is empty.
func (st *Store) MeanInRange(key string, t0, t1 float64) (float64, bool) {
	pts := st.Range(key, t0, t1)
	if len(pts) == 0 {
		return 0, false
	}
	var m stats.Moments
	for _, p := range pts {
		m.Add(p.V)
	}
	return m.Mean(), true
}

// QuantileInRange returns the q-quantile of a series over [t0, t1).
func (st *Store) QuantileInRange(key string, q, t0, t1 float64) (float64, bool) {
	pts := st.Range(key, t0, t1)
	if len(pts) == 0 {
		return 0, false
	}
	vals := make([]float64, len(pts))
	for i, p := range pts {
		vals[i] = p.V
	}
	return stats.Quantile(vals, q), true
}

// Canonical metric names used by the collectors.
const (
	MetricHostCPU = "host_cpu_util"
	MetricHostMem = "host_mem_util"
	MetricMSCPU   = "microservice_cpu_util" // mean util of hosts running the microservice
	MetricMSMem   = "microservice_mem_util"
	MetricMSCount = "microservice_containers"
)

// CollectCluster snapshots host-level and per-microservice utilization of the
// cluster into the store at the given time (minutes). This is the Prometheus
// scrape of the paper's deployment. Scraping again at the same time replaces
// that scrape's values instead of adding points, so a controller that scrapes
// every window at one timestamp holds one point per series however long it
// runs.
func CollectCluster(st *Store, cl *cluster.Cluster, tMin float64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, h := range cl.Hosts() {
		for h.ID >= len(st.hostGauges) {
			label := strconv.Itoa(len(st.hostGauges))
			st.hostGauges = append(st.hostGauges, hostSeries{
				cpu: st.seriesLocked(Key(MetricHostCPU, "host", label)),
				mem: st.seriesLocked(Key(MetricHostMem, "host", label)),
			})
		}
		cpu, mem := h.CPUUtil(), h.MemUtil()
		st.hostGauges[h.ID].cpu.set(tMin, cpu)
		st.hostGauges[h.ID].mem.set(tMin, mem)
		for _, c := range h.Containers() {
			ms := c.Spec.Microservice
			g := st.msGauges[ms]
			if g == nil {
				g = &msSeries{
					cpu:   st.seriesLocked(Key(MetricMSCPU, "ms", ms)),
					mem:   st.seriesLocked(Key(MetricMSMem, "ms", ms)),
					count: st.seriesLocked(Key(MetricMSCount, "ms", ms)),
				}
				st.msGauges[ms] = g
			}
			g.cpuUtil.Add(cpu)
			g.memUtil.Add(mem)
		}
	}
	for _, g := range st.msGauges {
		if g.cpuUtil.Count() == 0 {
			continue
		}
		g.cpu.set(tMin, g.cpuUtil.Mean())
		g.mem.set(tMin, g.memUtil.Mean())
		g.count.set(tMin, float64(g.cpuUtil.Count()))
		g.cpuUtil, g.memUtil = stats.Moments{}, stats.Moments{}
	}
}
