package spec

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"erms/internal/apps"
	"erms/internal/chaos"
	"erms/internal/drift"
	"erms/internal/sim"
	"erms/internal/sortutil"
	"erms/internal/workload"
)

// Parse reads a workload spec from YAML or JSON (detected by the first
// non-space byte), decodes it strictly — unknown fields, wrong types, and
// non-finite numbers are errors — and validates it. The returned spec is
// ready for Compile. A document parsed from bytes names no file, so it may
// not use app.kind "file" (ParseFile may).
func Parse(data []byte) (*Spec, error) { return parse(data, "") }

// ParseFile reads and parses the spec at path; an app.path in it is relative
// to path's directory.
func ParseFile(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	s, err := parse(data, filepath.Dir(path))
	if err != nil {
		return nil, fmt.Errorf("%w (in %s)", err, path)
	}
	return s, nil
}

// parse decodes and validates a document read from directory dir ("" for
// bytes that came from no file).
func parse(data []byte, dir string) (*Spec, error) {
	tree, err := parseTree(data)
	if err != nil {
		return nil, err
	}
	s, err := decodeSpec(tree)
	if err != nil {
		return nil, err
	}
	s.App.dir = dir
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// parseTree produces the generic document tree from YAML or JSON input.
func parseTree(data []byte) (any, error) {
	trimmed := bytes.TrimLeft(data, " \t\r\n")
	if len(trimmed) == 0 {
		return nil, fmt.Errorf("spec: empty document")
	}
	if trimmed[0] != '{' {
		return parseYAML(data)
	}
	dec := json.NewDecoder(bytes.NewReader(trimmed))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return nil, fmt.Errorf("spec: invalid JSON: %v", err)
	}
	var trailing any
	if err := dec.Decode(&trailing); err == nil || err.Error() != "EOF" {
		return nil, fmt.Errorf("spec: trailing content after JSON document")
	}
	return normalizeJSON(v)
}

// normalizeJSON converts json.Number leaves into the int64/uint64/float64
// shapes the YAML parser produces, so one decoder serves both formats.
func normalizeJSON(v any) (any, error) {
	switch t := v.(type) {
	case json.Number:
		s := t.String()
		if i, err := strconv.ParseInt(s, 10, 64); err == nil {
			return i, nil
		}
		if u, err := strconv.ParseUint(s, 10, 64); err == nil {
			return u, nil
		}
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return nil, fmt.Errorf("spec: invalid number %q", s)
		}
		return f, nil
	case map[string]any:
		// Key order, not map order, so the first bad number is the same one
		// on every parse.
		for _, k := range sortutil.Keys(t) {
			n, err := normalizeJSON(t[k])
			if err != nil {
				return nil, err
			}
			t[k] = n
		}
		return t, nil
	case []any:
		for i, e := range t {
			n, err := normalizeJSON(e)
			if err != nil {
				return nil, err
			}
			t[i] = n
		}
		return t, nil
	default:
		return v, nil
	}
}

// typeName names a tree value for error messages.
func typeName(v any) string {
	switch v.(type) {
	case nil:
		return "null"
	case map[string]any:
		return "a mapping"
	case []any:
		return "a sequence"
	case string:
		return "a string"
	case bool:
		return "a boolean"
	case int64, uint64, float64:
		return "a number"
	default:
		return fmt.Sprintf("%T", v)
	}
}

// dec carries the first decode error; once set, further reads are no-ops so
// call sites stay linear.
type dec struct{ err error }

func (d *dec) errf(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

// obj wraps a mapping node for strict field access.
type objd struct {
	d    *dec
	path string
	m    map[string]any
	used map[string]bool
}

func (d *dec) obj(path string, v any) *objd {
	o := &objd{d: d, path: path}
	if d.err != nil {
		return o
	}
	m, ok := v.(map[string]any)
	if !ok {
		where := path
		if where == "" {
			where = "document root"
		}
		d.errf("spec: %s must be a mapping, got %s", where, typeName(v))
		return o
	}
	o.m = m
	o.used = make(map[string]bool, len(m))
	return o
}

func (o *objd) at(key string) string {
	if o.path == "" {
		return key
	}
	return o.path + "." + key
}

// get marks key as known and returns its value if present.
func (o *objd) get(key string) (any, bool) {
	if o.m == nil {
		return nil, false
	}
	o.used[key] = true
	v, ok := o.m[key]
	if !ok || v == nil {
		return nil, false
	}
	return v, true
}

// done rejects fields that no get touched, listing the accepted ones.
func (o *objd) done() {
	if o.m == nil || o.d.err != nil {
		return
	}
	var unknown, known []string
	for k := range o.m {
		if !o.used[k] {
			unknown = append(unknown, k)
		}
	}
	if len(unknown) == 0 {
		return
	}
	for k := range o.used {
		known = append(known, k)
	}
	sort.Strings(unknown)
	sort.Strings(known)
	where := o.path
	if where == "" {
		where = "document root"
	}
	o.d.errf("spec: unknown field %q in %s (accepted fields: %s)",
		unknown[0], where, strings.Join(known, ", "))
}

func (o *objd) str(key, def string) string {
	v, ok := o.get(key)
	if !ok {
		return def
	}
	s, isStr := v.(string)
	if !isStr {
		o.d.errf("spec: %s must be a string, got %s", o.at(key), typeName(v))
		return def
	}
	return s
}

func (o *objd) boolean(key string, def bool) bool {
	v, ok := o.get(key)
	if !ok {
		return def
	}
	b, isBool := v.(bool)
	if !isBool {
		o.d.errf("spec: %s must be true or false, got %s", o.at(key), typeName(v))
		return def
	}
	return b
}

// toFloat converts any numeric leaf, rejecting NaN and ±Inf.
func (d *dec) toFloat(path string, v any) float64 {
	switch n := v.(type) {
	case int64:
		return float64(n)
	case uint64:
		return float64(n)
	case float64:
		if math.IsNaN(n) || math.IsInf(n, 0) {
			d.errf("spec: %s must be a finite number", path)
			return 0
		}
		return n
	default:
		d.errf("spec: %s must be a number, got %s", path, typeName(v))
		return 0
	}
}

func (o *objd) f64(key string, def float64) float64 {
	v, ok := o.get(key)
	if !ok {
		return def
	}
	return o.d.toFloat(o.at(key), v)
}

// f64set is f64 plus a flag recording whether the field was present.
func (o *objd) f64set(key string) (float64, bool) {
	v, ok := o.get(key)
	if !ok {
		return 0, false
	}
	return o.d.toFloat(o.at(key), v), true
}

func (o *objd) integer(key string, def int) int {
	v, ok := o.get(key)
	if !ok {
		return def
	}
	switch n := v.(type) {
	case int64:
		if n < math.MinInt32 || n > math.MaxInt32 {
			o.d.errf("spec: %s out of range: %d", o.at(key), n)
			return def
		}
		return int(n)
	case uint64:
		if n > math.MaxInt32 {
			o.d.errf("spec: %s out of range: %d", o.at(key), n)
			return def
		}
		return int(n)
	default:
		o.d.errf("spec: %s must be an integer, got %s", o.at(key), typeName(v))
		return def
	}
}

// u64 reads an unsigned 64-bit integer (seeds), reporting presence.
func (o *objd) u64(key string, def uint64) (uint64, bool) {
	v, ok := o.get(key)
	if !ok {
		return def, false
	}
	switch n := v.(type) {
	case int64:
		if n < 0 {
			o.d.errf("spec: %s must be a non-negative integer, got %d", o.at(key), n)
			return def, true
		}
		return uint64(n), true
	case uint64:
		return n, true
	default:
		o.d.errf("spec: %s must be a non-negative integer, got %s", o.at(key), typeName(v))
		return def, true
	}
}

func (o *objd) f64s(key string) []float64 {
	v, ok := o.get(key)
	if !ok {
		return nil
	}
	seq, isSeq := v.([]any)
	if !isSeq {
		o.d.errf("spec: %s must be a sequence of numbers, got %s", o.at(key), typeName(v))
		return nil
	}
	out := make([]float64, len(seq))
	for i, e := range seq {
		out[i] = o.d.toFloat(fmt.Sprintf("%s[%d]", o.at(key), i), e)
	}
	return out
}

func (o *objd) strs(key string) []string {
	v, ok := o.get(key)
	if !ok {
		return nil
	}
	seq, isSeq := v.([]any)
	if !isSeq {
		o.d.errf("spec: %s must be a sequence of strings, got %s", o.at(key), typeName(v))
		return nil
	}
	out := make([]string, len(seq))
	for i, e := range seq {
		s, isStr := e.(string)
		if !isStr {
			o.d.errf("spec: %s[%d] must be a string, got %s", o.at(key), i, typeName(e))
			return nil
		}
		out[i] = s
	}
	return out
}

// seq wraps a sequence node.
func (d *dec) seq(path string, v any) []any {
	if d.err != nil {
		return nil
	}
	s, ok := v.([]any)
	if !ok {
		d.errf("spec: %s must be a sequence, got %s", path, typeName(v))
		return nil
	}
	return s
}

// decodeSpec walks the generic tree into a Spec, applying documented
// defaults for absent optional fields.
func decodeSpec(tree any) (*Spec, error) {
	d := &dec{}
	root := d.obj("", tree)
	s := &Spec{}
	s.Version = root.integer("version", 0)
	s.Name = root.str("name", "spec")
	s.Seed, _ = root.u64("seed", 1)
	s.TimeScale = root.f64("time_scale", 1)

	if v, ok := root.get("app"); ok {
		app := d.obj("app", v)
		s.App.Kind = app.str("kind", "")
		s.App.Path = app.str("path", "")
		seed, seedSet := app.u64("seed", s.Seed)
		s.App.ScaleConfig = apps.ScaleConfig{
			Seed:                    seed,
			Services:                app.integer("services", 0),
			MicroservicesPerService: app.integer("microservices_per_service", 0),
			SharingDegree:           app.integer("sharing_degree", 0),
			MaxStageWidth:           app.integer("max_stage_width", 0),
		}
		s.App.seedSet = seedSet
		if sv, ok := app.get("slas"); ok {
			t := d.obj("app.slas", sv)
			if t.m != nil {
				s.App.SLAs = make(map[string]float64, len(t.m))
				for _, k := range sortutil.Keys(t.m) {
					fv, _ := t.get(k)
					s.App.SLAs[k] = d.toFloat(t.at(k), fv)
				}
			}
		}
		app.done()
	} else {
		d.errf("spec: app is required (app.kind selects the topology)")
	}

	if v, ok := root.get("run"); ok {
		run := d.obj("run", v)
		s.Run.DurationMin = run.f64("duration_min", 0)
		s.Run.WarmupMin = run.f64("warmup_min", 0)
		s.Run.WindowMin = run.f64("window_min", s.Run.DurationMin)
		s.Run.Hosts = run.integer("hosts", 40)
		s.Run.Scheme = run.str("scheme", "priority")
		s.Run.Models = run.str("models", "analytic")
		run.done()
	} else {
		d.errf("spec: run is required (run.duration_min sets the horizon)")
	}

	if v, ok := root.get("resilience"); ok {
		r := d.obj("resilience", v)
		s.Resilience = &sim.Resilience{
			TimeoutSLAMultiple: r.f64("timeout_sla_multiple", 0),
			RequestTimeoutMs:   r.f64("request_timeout_ms", 0),
			AttemptTimeoutMs:   r.f64("attempt_timeout_ms", 0),
			MaxAttempts:        r.integer("max_attempts", 0),
			RetryBudget:        r.f64("retry_budget", 0),
			BreakerFailureRate: r.f64("breaker_failure_rate", 0),
			Shed:               r.boolean("shed", false),
			ShedMaxWaitMs:      r.f64("shed_max_wait_ms", 0),
		}
		if tv, ok := r.get("tier_shed_factors"); ok {
			// Tiers the block names override sim.DefaultTierShedFactors.
			t := d.obj("resilience.tier_shed_factors", tv)
			if len(t.m) > 0 {
				s.Resilience.TierShedFactors = sim.DefaultTierShedFactors
			}
			for _, k := range sortutil.Keys(t.m) {
				fv, _ := t.get(k)
				f := d.toFloat(t.at(k), fv)
				if tier, err := workload.ParseTier(k); err != nil {
					d.errf("spec: resilience.tier_shed_factors: %v", err)
				} else {
					s.Resilience.TierShedFactors[tier] = f
				}
			}
		}
		r.done()
	}

	if v, ok := root.get("chaos"); ok {
		c := d.obj("chaos", v)
		seed, _ := c.u64("seed", s.Seed)
		s.Chaos = &chaos.Config{
			Seed:             seed,
			PHostFail:        c.f64("p_host_fail", 0),
			DownWindows:      c.integer("down_windows", 0),
			MaxHostsDown:     c.integer("max_hosts_down", 0),
			PCrash:           c.f64("p_crash", 0),
			CrashesPerWindow: c.integer("crashes_per_window", 0),
			PSpike:           c.f64("p_spike", 0),
			SpikeHosts:       c.integer("spike_hosts", 0),
			Severity:         workload.Interference{CPU: c.f64("severity_cpu", 0), Mem: c.f64("severity_mem", 0)},
			PObsGap:          c.f64("p_obs_gap", 0),
			POpFail:          c.f64("p_op_fail", 0),
			OpFailures:       c.integer("op_failures", 0),
		}
		c.done()
	}

	if v, ok := root.get("drift"); ok {
		dr := d.obj("drift", v)
		s.Drift = &drift.Config{
			Threshold:   dr.f64("threshold", 0),
			Consecutive: dr.integer("consecutive", 0),
			Downward:    dr.boolean("downward", false),
		}
		dr.done()
	}

	if v, ok := root.get("cohorts"); ok {
		for i, cv := range d.seq("cohorts", v) {
			path := fmt.Sprintf("cohorts[%d]", i)
			o := d.obj(path, cv)
			var c Cohort
			c.Name = o.str("name", "")
			c.Service = o.str("service", "")
			tierName := o.str("tier", "")
			if d.err == nil {
				if tierName == "" {
					d.errf("spec: %s.tier is required (critical, standard, sheddable, or batch)", path)
				} else if t, err := workload.ParseTier(tierName); err != nil {
					d.errf("spec: %s.tier: %v", path, err)
				} else {
					c.Tier = t
				}
			}
			c.SLAMs = o.f64("sla_ms", 0)
			if av, ok := o.get("arrival"); ok {
				a := d.obj(path+".arrival", av)
				c.Arrival.Kind = a.str("kind", "")
				c.Arrival.Rate = a.f64("rate", 0)
				c.Arrival.Base = a.f64("base", 0)
				c.Arrival.Peak = a.f64("peak", 0)
				c.Arrival.PeriodMin = a.f64("period_min", 0)
				c.Arrival.PhaseMin = a.f64("phase_min", 0)
				c.Arrival.Rates = a.f64s("rates")
				c.Arrival.StepMin = a.f64("step_min", 0)
				c.Arrival.TraceName = a.str("name", "")
				a.done()
			} else {
				d.errf("spec: %s.arrival is required (arrival.kind: static, diurnal, or trace)", path)
			}
			o.done()
			s.Cohorts = append(s.Cohorts, c)
		}
	}

	if v, ok := root.get("phases"); ok {
		for i, pv := range d.seq("phases", v) {
			path := fmt.Sprintf("phases[%d]", i)
			o := d.obj(path, pv)
			var p Phase
			p.Name = o.str("name", "")
			p.Kind = o.str("kind", "")
			p.StartMin = o.f64("start_min", 0)
			p.DurationMin = o.f64("duration_min", 0)
			p.RampMin = o.f64("ramp_min", 0)
			p.Factor, p.factorSet = o.f64set("factor")
			p.Cohorts = o.strs("cohorts")
			p.From = o.str("from", "")
			p.To = o.str("to", "")
			p.Fraction = o.f64("fraction", 0)
			o.done()
			s.Phases = append(s.Phases, p)
		}
	}

	root.done()
	if d.err != nil {
		return nil, d.err
	}
	return s, nil
}
