package experiments

import (
	"fmt"

	"erms/internal/apps"
	"erms/internal/cluster"
	"erms/internal/parallel"
	"erms/internal/profiling"
	"erms/internal/stats"
	"erms/internal/workload"
)

func init() {
	register("fig10", Fig10)
}

// sampleGen draws profiling samples for one microservice from its underlying
// (piece-wise, interference-dependent) latency law plus multiplicative
// measurement noise — the stand-in for a day of per-minute production
// samples. The generating law is the analytic curve family, NOT the model
// the fitter assumes verbatim: the generator uses the smooth convex law with
// continuous knees, so the fit has genuine approximation error.
func sampleGen(m *profiling.Analytic, n int, noise float64, seed uint64) []profiling.Sample {
	r := stats.NewRNG(seed)
	levels := workload.InterferenceLevels
	// Samples arrive in hour-long blocks of constant injected interference,
	// cycling twice through the levels over the "day" — matching the
	// paper's hourly iBench schedule. A small time-prefix of the data
	// therefore covers few interference levels, which is exactly what
	// degrades black-box models in Fig. 10b.
	blocks := 2 * len(levels)
	out := make([]profiling.Sample, 0, n)
	for i := 0; i < n; i++ {
		lvl := levels[(i*blocks/n)%len(levels)]
		sat := m.Saturation(lvl.CPU, lvl.Mem)
		// Profile only the stable operating range (the paper's collection
		// keeps services below saturation).
		w := r.Float64() * sat * 0.9
		// Underlying smooth law: L = L0·(1 + (K-1)·ρ/ρknee) below the knee,
		// then convex growth ~1/(1-ρ)-like above, evaluated directly from
		// the queueing-flavored shape rather than the linearized intervals.
		rho := w / sat
		inf := m.Interference.Inflation(lvl.CPU, lvl.Mem)
		// §2.2: interference mainly steepens the slope and pulls the knee
		// earlier; the light-load intercept barely moves. Scale the growth
		// terms fully with inflation but the idle floor only mildly.
		base := 3.0 * m.Profile.BaseMs
		l0 := base * (1 + 0.3*(inf-1))
		var l float64
		if rho <= m.RhoKnee {
			l = l0 + base*inf*(m.KneeFactor-1)*rho/m.RhoKnee
		} else {
			// Post-knee growth is steep but mostly linear in the observed
			// range (Fig. 3), with mild convexity.
			over := (rho - m.RhoKnee) / (1 - m.RhoKnee)
			l = l0 + base*inf*(m.KneeFactor-1)*(1+1.8*over+0.6*over*over)
		}
		l *= 1 + noise*r.NormFloat64()
		if l < 0.05 {
			l = 0.05
		}
		out = append(out, profiling.Sample{Workload: w, TailMs: l, CPUUtil: lvl.CPU, MemUtil: lvl.Mem})
	}
	return out
}

// accuracyRow fits all three model families on train and evaluates on test.
func accuracyRow(train, test []profiling.Sample, seed uint64) (erms, gbdt, nn float64) {
	em, err := profiling.Fit("ms", train, profiling.FitConfig{MinBucket: 5})
	if err == nil {
		erms = profiling.Evaluate(em, test)
	}
	gm, err := profiling.FitGBDTBaseline(train)
	if err == nil {
		gbdt = profiling.EvaluatePredictor(gm, test)
	}
	nm, err := profiling.FitNNBaseline(train, seed)
	if err == nil {
		nn = profiling.EvaluatePredictor(nm, test)
	}
	return
}

// Fig10 reproduces the profiling-accuracy comparison: (a) testing accuracy
// of Erms' piece-wise linear model versus GBDT (XGBoost stand-in) and a
// 64-neuron NN across the benchmark applications and an Alibaba-shaped
// microservice population; (b) accuracy versus training-set fraction.
func Fig10(quick bool) []*Table {
	nSamplesPerMS := 600
	msPerApp := 4
	if quick {
		nSamplesPerMS = 350
		msPerApp = 2
	}

	a := &Table{
		ID:     "fig10a",
		Title:  "Profiling testing accuracy by application (22h-train / 2h-test style split)",
		Header: []string{"application", "erms", "xgboost(gbdt)", "nn-64"},
	}
	appsUnder := []*apps.App{apps.SocialNetwork(), apps.MediaService(), apps.HotelReservation()}
	// Alibaba-shaped population: heterogeneous base times.
	ali := apps.Alibaba(apps.AlibabaConfig{Seed: 9, Services: 10, MeanGraphSize: 10})

	// Each sampled microservice is one independent generate→split→fit job.
	// Seeds are assigned by flat job index (the sequential sweep's seed++
	// advanced once per job: generation used the running seed, the fits the
	// next one), and per-application rows fold results back in job order.
	type accJob struct {
		m     *profiling.Analytic
		noise float64
	}
	var jobs []accJob
	var rowJobs [][]int // job indices per table row
	var rowNames []string
	addBlock := func(name string, app *apps.App, noise float64) {
		mss := app.Microservices()
		var idxs []int
		for i := 0; i < msPerApp && i < len(mss); i++ {
			ms := mss[i*len(mss)/msPerApp]
			jobs = append(jobs, accJob{
				m:     profiling.NewAnalytic(app.Profiles[ms], app.Containers[ms].Threads, cluster.DefaultInterference),
				noise: noise,
			})
			idxs = append(idxs, len(jobs)-1)
		}
		rowJobs = append(rowJobs, idxs)
		rowNames = append(rowNames, name)
	}
	for _, app := range appsUnder {
		addBlock(app.Name, app, 0.08)
	}
	addBlock("alibaba(taobao)", ali, 0.10)

	type accOut struct {
		ok      bool
		e, g, n float64
	}
	outs, err := parallel.Map(len(jobs), func(j int) (accOut, error) {
		genSeed := uint64(1) + uint64(j)
		samples := sampleGen(jobs[j].m, nSamplesPerMS, jobs[j].noise, genSeed)
		train, test, err := profiling.Split(samples, 22.0/24)
		if err != nil {
			return accOut{}, nil
		}
		e, g, n := accuracyRow(train, test, genSeed+1)
		return accOut{ok: true, e: e, g: g, n: n}, nil
	})
	if err != nil {
		panic(err)
	}
	for ri, name := range rowNames {
		var accE, accG, accN stats.Moments
		for _, j := range rowJobs[ri] {
			if !outs[j].ok {
				continue
			}
			accE.Add(outs[j].e)
			accG.Add(outs[j].g)
			accN.Add(outs[j].n)
		}
		a.AddRow(name, pct(accE.Mean()), pct(accG.Mean()), pct(accN.Mean()))
	}
	mss := ali.Microservices()
	a.AddNote("paper: all three land in 83-88%%; Erms needs only the slopes/intercepts for scaling")

	b := &Table{
		ID:     "fig10b",
		Title:  "Testing accuracy vs training-set fraction (Taobao-like microservice)",
		Header: []string{"train fraction", "erms", "xgboost(gbdt)", "nn-64"},
	}
	fractions := []float64{0.1, 0.3, 0.5, 0.7, 0.9}
	if quick {
		fractions = []float64{0.1, 0.5, 0.9}
	}
	ms := mss[0]
	m := profiling.NewAnalytic(ali.Profiles[ms], ali.Containers[ms].Threads, cluster.DefaultInterference)
	full := sampleGen(m, nSamplesPerMS*2, 0.10, 777)
	// Fixed held-out tail for every fraction.
	test := full[len(full)*4/5:]
	pool := full[:len(full)*4/5]
	// The fractions share only the read-only pool/test slices and a fixed
	// fit seed, so they fan out.
	type fracOut struct{ e, g, n float64 }
	fouts, err := parallel.Map(len(fractions), func(i int) (fracOut, error) {
		n := int(float64(len(pool)) * fractions[i])
		if n < 12 {
			n = 12
		}
		e, g, nn := accuracyRow(pool[:n], test, 31)
		return fracOut{e: e, g: g, n: nn}, nil
	})
	if err != nil {
		panic(err)
	}
	for i, frac := range fractions {
		b.AddRow(fmt.Sprintf("%.0f%%", frac*100), pct(fouts[i].e), pct(fouts[i].g), pct(fouts[i].n))
	}
	b.AddNote("paper: Erms holds ~81%% at 70%% of the data; the NN collapses as samples shrink")
	return []*Table{a, b}
}
