package main

// perLayer assembles the per-layer metrics: stage times from the traced
// in-process replay, and the counters mbserve exports, taken as deltas
// over the timed window from the /metrics scrapes around it. A layer the
// workload does not exercise reads 0.
func perLayer(m *measurement, v *verdict, e2e e2eReport, tr *traceReport) map[string]metric {
	durs := map[string][]float64{} // ns, by span name
	children := map[int][]span{}
	for _, s := range tr.spans {
		durs[s.Name] = append(durs[s.Name], float64(s.dur()))
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	// Stage times are means per call — busy time per call — so the
	// stages of the chain add up to the chain's own mean.
	avg := func(name string, scale float64) float64 { return mean(durs[name]) / scale }

	// Pair each request's handler span with its chain span: the
	// difference is what the handler spends outside the six stages. Its
	// median, not its mean, is reported: a forwarded hop or a parallel
	// sweep now and then stalls one side by hundreds of µs.
	chainOf := map[int]int64{}
	var coverage, self, nsPerCycle []float64
	sims := 0
	for _, s := range tr.spans {
		switch s.Name {
		case spanChain:
			chainOf[s.Req] = s.dur()
			coverage = append(coverage, 100*float64(covered(s.Start, s.End, children[s.ID]))/float64(s.dur()))
		case spanSweepRun:
			self = append(self, float64(selfTime(s, children[s.ID])))
		case spanSimRun:
			nsPerCycle = append(nsPerCycle, float64(s.dur())/float64(tr.simCycles[sims]))
			sims++
		}
	}
	var middleware []float64
	for _, s := range tr.spans {
		if c, ok := chainOf[s.Req]; ok && s.Name == spanHandler {
			middleware = append(middleware, float64(s.dur()-c))
		}
	}

	all := make([]int, len(m.after))
	for k := range all {
		all[k] = k
	}
	delta := func(name string, match func(map[string]string) bool, insts ...int) float64 {
		d := 0.0
		for _, k := range insts {
			d += promSum(m.after[k], name, match) - promSum(m.before[k], name, match)
		}
		return d
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	attempted := float64(v.attempted)
	hits := delta("mbserve_cache_hits", nil, all...)
	misses := delta("mbserve_cache_misses", nil, all...)
	forwarded := delta("mbserve_peer_requests_total", nil, 0)
	notOK := func(l map[string]string) bool { return l["result"] != "ok" }
	ringShare := 0.0
	if len(m.urls) > 1 {
		ringShare = promSum(m.after[0], "mbserve_ring_share", labelIs("peer", m.urls[0]))
	}
	handlerUs := avg(spanHandler, 1e3)
	// The transport share is the client-observed p50 less the handler's
	// own p50.
	transportUs := e2e.p50Ms*1e3 - median(durs[spanHandler])/1e3

	ms := map[string]metric{
		"http.transport_us":             {transportUs, "us"},
		"service.handler_us":            {handlerUs, "us"},
		"service.middleware_us":         {median(middleware) / 1e3, "us"},
		"service.decode_us":             {avg(spanDecode, 1e3), "us"},
		"service.encode_us":             {avg(spanEncode, 1e3), "us"},
		"service.admit_wait_ms":         {1e3 * ratio(delta("mbserve_queue_wait_seconds_sum", nil, all...), delta("mbserve_queue_wait_seconds_count", nil, all...)), "ms"},
		"service.shed":                  {ratio(delta("mbserve_shed_total", nil, all...), attempted), "ratio"},
		"scenario.build_us":             {avg(spanBuild, 1e3), "us"},
		"scenario.key_us":               {avg(spanKey, 1e3), "us"},
		"cache.lookup_us":               {avg(spanLookup, 1e3), "us"},
		"cache.hit_ratio":               {ratio(hits, hits+misses), "ratio"},
		"cache.evictions_per_req":       {ratio(delta("mbserve_cache_evictions", nil, all...), attempted), "1/req"},
		"compute.analyze_us":            {avg(spanAnalyze, 1e3), "us"},
		"analytic.classify_us":          {avg(spanClassify, 1e3), "us"},
		"compute.sweep_point_ms":        {avg(spanPoint, 1e6), "ms"},
		"sweep.run_ms":                  {avg(spanSweepRun, 1e6), "ms"},
		"sweep.self_ms":                 {mean(self) / 1e6, "ms"},
		"sim.ns_per_cycle":              {mean(nsPerCycle), "ns"},
		"cluster.forward_share":         {ratio(forwarded, delta("mbserve_requests_total", labelIs("route", "analyze"), 0)), "ratio"},
		"cluster.ring_share":            {ringShare, "ratio"},
		"cluster.local_us":              {avg(spanLocal, 1e3), "us"},
		"cluster.forward_us":            {avg(spanForward, 1e3), "us"},
		"cluster.peer_errors":           {delta("mbserve_peer_requests_total", notOK, 0), "count"},
		"trace.overhead_pct":            {tr.overheadPct, "%"},
		"trace.coverage_pct":            {median(coverage), "%"},
		"health.steal_pct":              {100 * m.steal, "%"},
		"health.loadgen_cpu_us_per_req": {ratio(float64(m.loadCPU.Microseconds()), float64(e2e.successes)), "us"},
		"latency.p99_beyond":            {float64(e2e.p99.beyond), "count"},
	}
	return ms
}
