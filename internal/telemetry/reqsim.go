package telemetry

// ReqsimMetrics instruments request-level slot replays (internal/reqsim):
// replay counts and request volume at the top level plus a site-labeled
// breakdown of the per-slot replay outcome. The percentile gauges carry
// the *exact* streaming percentiles computed by the replay's sample tape
// for the last replayed slot; the response-time histogram buckets the same
// percentile triple cumulatively for exposition — the two views
// deliberately coexist (gauges are exact but last-slot-only, the histogram
// is approximate but cumulative). Like the other *Metrics it takes plain
// values so reqsim imports telemetry, never the reverse. All methods are
// nil-safe.
type ReqsimMetrics struct {
	Replays  *Counter // slots replayed at request granularity
	Requests *Counter // total simulated requests
	Events   *Counter // total processed simulation events
	// ModelErrSum accumulates |empirical − analytic|/analytic across
	// replays (divide by Replays for the mean relative error).
	ModelErrSum *Counter

	siteRequests *LabeledCounter
	siteDropped  *LabeledCounter
	siteP50      *LabeledGauge
	siteP95      *LabeledGauge
	siteP99      *LabeledGauge
	siteQueue    *LabeledGauge
	siteModelErr *LabeledGauge
	siteResp     *LabeledHistogram
}

// NewReqsimMetrics registers replay instruments under prefix
// (conventionally "reqsim"). Site series are labeled vectors
// ("<prefix>.site.p99_sec"{site="…"}, …), interned on first observation.
func NewReqsimMetrics(r *Registry, prefix string) *ReqsimMetrics {
	p := prefix + "."
	return &ReqsimMetrics{
		Replays:     r.Counter(p + "replays"),
		Requests:    r.Counter(p + "requests"),
		Events:      r.Counter(p + "events"),
		ModelErrSum: r.Counter(p + "model_err_sum"),

		siteRequests: r.LabeledCounter(p+"site.requests", "simulated requests replayed for the site", "site"),
		siteDropped:  r.LabeledCounter(p+"site.dropped", "requests rejected by the replay admission cap", "site"),
		siteP50:      r.LabeledGauge(p+"site.p50_sec", "exact median response time of the last replayed slot", "site"),
		siteP95:      r.LabeledGauge(p+"site.p95_sec", "exact P95 response time of the last replayed slot", "site"),
		siteP99:      r.LabeledGauge(p+"site.p99_sec", "exact P99 response time of the last replayed slot", "site"),
		siteQueue:    r.LabeledGauge(p+"site.queue_len", "measured mean jobs in system, last replayed slot", "site"),
		siteModelErr: r.LabeledGauge(p+"site.model_err", "relative empirical-vs-analytic mean-jobs error, last slot", "site"),
		siteResp:     r.LabeledHistogram(p+"site.resp_seconds", "response-time distribution across replayed slots", ExpBuckets(1e-3, 2, 18), "site"),
	}
}

// ObserveReplay folds one site's replayed slot into the instruments. It is
// safe for concurrent use: each site series resolves through its vector's
// allocation-free With. modelErr is the relative
// |empirical − analytic|/analytic mean-jobs error; pass a negative value
// when no analytic prediction exists (the error series is skipped,
// everything else recorded).
func (m *ReqsimMetrics) ObserveReplay(site string, requests, dropped int, events int64,
	p50, p95, p99, meanJobs, modelErr float64) {
	if m == nil {
		return
	}
	m.Replays.Inc()
	m.Requests.Add(float64(requests))
	m.Events.Add(float64(events))
	m.siteRequests.With(site).Add(float64(requests))
	m.siteDropped.With(site).Add(float64(dropped))
	m.siteP50.With(site).Set(p50)
	m.siteP95.With(site).Set(p95)
	m.siteP99.With(site).Set(p99)
	m.siteQueue.With(site).Set(meanJobs)
	siteErr := m.siteModelErr.With(site) // interned even when skipped
	if modelErr >= 0 {
		m.ModelErrSum.Add(modelErr)
		siteErr.Set(modelErr)
	}
	resp := m.siteResp.With(site)
	resp.Observe(p50)
	resp.Observe(p95)
	resp.Observe(p99)
}
