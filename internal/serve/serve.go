// Package serve hosts the COCA controller as a long-running service — the
// control plane over the engine. Where cocasim runs the controller as a
// batch solve, a Service wraps the group-level core.Controller in a slot
// loop that ingests streaming observations one at a time (the paper's
// online setting: the controller must survive a year of operation), serves
// each slot's decision back, and keeps a checkpointable running state —
// slot cursor, deficit queue, solver warm starts, cumulative cost and an
// FNV-1a hash chain over every settled slot — so the process can be killed
// and restarted mid-year with bit-for-bit continuation.
package serve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// SlotInput is one slot's observations on the wire: the hour-ahead
// knowledge λ(t), r(t), w(t) plus the slot's realized off-site generation
// f(t). Carrying f(t) on the same record keeps the ingest loop one
// step-and-settle per line; a producer that learns f(t) late simply sends
// the record when the slot closes.
type SlotInput struct {
	LambdaRPS      float64 `json:"lambda_rps"`
	OnsiteKW       float64 `json:"onsite_kw"`
	PriceUSDPerKWh float64 `json:"price_usd_per_kwh"`
	OffsiteKWh     float64 `json:"offsite_kwh"`
}

// ErrBadInput marks observations rejected before they reach the
// controller; every SlotInput.Validate error wraps it.
var ErrBadInput = errors.New("serve: bad slot input")

// Validate rejects observations the controller cannot price.
func (in SlotInput) Validate() error {
	check := func(name string, v float64, allowNeg bool) error {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%w: %s = %v is not finite", ErrBadInput, name, v)
		}
		if !allowNeg && v < 0 {
			return fmt.Errorf("%w: %s = %v is negative", ErrBadInput, name, v)
		}
		return nil
	}
	if err := check("lambda_rps", in.LambdaRPS, false); err != nil {
		return err
	}
	if err := check("onsite_kw", in.OnsiteKW, false); err != nil {
		return err
	}
	// Negative prices are real (surplus renewable hours); only require finite.
	if err := check("price_usd_per_kwh", in.PriceUSDPerKWh, true); err != nil {
		return err
	}
	return check("offsite_kwh", in.OffsiteKWh, false)
}

// Decision is the service's answer for one ingested slot.
type Decision struct {
	Slot     int     `json:"slot"`
	Speeds   []int   `json:"speeds"`
	Active   int     `json:"active"`
	Queue    float64 `json:"queue_kwh"` // q(t) used in the slot's P3 weights
	GridKWh  float64 `json:"grid_kwh"`
	TotalUSD float64 `json:"total_usd"`
	Hash     string  `json:"hash"` // state hash after the slot settled
}

// State is the service's queryable running state (the /state document).
type State struct {
	Slot     int     `json:"slot"` // next slot to be stepped
	Queue    float64 `json:"queue_kwh"`
	TotalUSD float64 `json:"total_usd"`
	GridKWh  float64 `json:"grid_kwh"`
	Hash     string  `json:"hash"`
	Restored bool    `json:"restored"` // state came (partly) from a checkpoint
}

// CheckpointVersion is the current service Checkpoint schema version.
const CheckpointVersion = 1

// Checkpoint is the versioned snapshot of a Service: the controller's own
// checkpoint plus the service's cumulative accounting and hash chain.
type Checkpoint struct {
	Version    int                       `json:"version"`
	Slot       int                       `json:"slot"`
	TotalUSD   float64                   `json:"total_usd"`
	GridKWh    float64                   `json:"grid_kwh"`
	Hash       uint64                    `json:"hash"`
	Controller core.ControllerCheckpoint `json:"controller"`
}

// Metrics instruments a Service in a telemetry registry.
type Metrics struct {
	Slots    *telemetry.Counter
	Rejected *telemetry.Counter
	TotalUSD *telemetry.Gauge
	GridKWh  *telemetry.Gauge
	Queue    *telemetry.Gauge

	// SettleLagSeconds is the age of the most recently settled slot,
	// refreshed on every registry scrape (the Handler hooks it) — a
	// stalled feed shows up as a monotonically climbing lag.
	SettleLagSeconds *telemetry.Gauge

	// StepSeconds distributes slot turnaround as seen by Step —
	// validation through settle, the lock held.
	StepSeconds *telemetry.Histogram
}

// NewMetrics registers service instruments under prefix.
func NewMetrics(r *telemetry.Registry, prefix string) *Metrics {
	return newMetrics(r, prefix, nil)
}

// NewSiteMetrics registers the same service instruments as site-labeled
// vector children, so a daemon that is one site of a larger deployment
// exposes coca_slots{site="…"}-style series a fleet scraper can
// aggregate. Cardinality: the site label is the deployment's bounded
// site name, never a per-slot or per-request value.
func NewSiteMetrics(r *telemetry.Registry, prefix, site string) *Metrics {
	return newMetrics(r, prefix, []string{"site"}, site)
}

// newMetrics registers the service instruments under prefix: flat
// families when labels is empty, else the values' children of labeled
// vectors.
func newMetrics(r *telemetry.Registry, prefix string, labels []string, values ...string) *Metrics {
	p := prefix + "."
	counter := func(name, help string) *telemetry.Counter {
		return r.LabeledCounter(p+name, help, labels...).With(values...)
	}
	gauge := func(name, help string) *telemetry.Gauge {
		return r.LabeledGauge(p+name, help, labels...).With(values...)
	}
	return &Metrics{
		Slots:            counter("slots", "settled slots"),
		Rejected:         counter("rejected", "slot inputs rejected before settling"),
		TotalUSD:         gauge("total_usd", "cumulative operating cost"),
		GridKWh:          gauge("grid_kwh", "cumulative grid draw"),
		Queue:            gauge("queue_kwh", "carbon-deficit queue length"),
		SettleLagSeconds: gauge("settle_lag_seconds", "age of the last settled slot"),
		StepSeconds: r.LabeledHistogram(p+"step_seconds", "slot turnaround through Step",
			telemetry.ExpBuckets(1e-5, 4, 12), labels...).With(values...),
	}
}

// Service drives a core.Controller slot by slot. All methods are safe for
// concurrent use; slots are strictly serialized, so concurrent ingestors
// interleave at slot granularity.
type Service struct {
	mu         sync.Mutex
	ctrl       *core.Controller
	hash       uint64
	totalUSD   float64
	gridKWh    float64
	restored   bool
	metrics    *Metrics
	lastSettle time.Time // wall clock of the most recent settled slot

	// onSettle, when set, runs after every settled slot while the service
	// lock is held (the slot count is the settled total). The daemon uses
	// it for periodic checkpointing.
	onSettle func(slot int)
}

// New wraps a controller. The controller must not be stepped by anyone
// else afterwards.
func New(ctrl *core.Controller) *Service {
	return &Service{ctrl: ctrl, hash: fnvOffset}
}

// Instrument attaches service metrics (and the controller's queue gauge).
func (s *Service) Instrument(m *Metrics) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.metrics = m
	if m != nil {
		s.ctrl.InstrumentQueue(m.Queue)
	}
}

// SetOnSettle installs a post-slot hook, invoked with the settled slot
// count while the service is locked. Pass nil to clear.
func (s *Service) SetOnSettle(fn func(slot int)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.onSettle = fn
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// foldUint64 folds one 64-bit word into the FNV-1a chain byte by byte.
func foldUint64(h, v uint64) uint64 {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	for _, x := range b {
		h = (h ^ uint64(x)) * fnvPrime
	}
	return h
}

func foldFloat(h uint64, v float64) uint64 { return foldUint64(h, math.Float64bits(v)) }

// Step ingests one slot: validate, decide via the controller, settle with
// the realized off-site generation, and fold the outcome into the hash
// chain. The error cases leave the controller state untouched (an
// unsettled Step never moves it), so a rejected slot can be resent.
func (s *Service) Step(in SlotInput) (Decision, error) {
	if err := in.Validate(); err != nil {
		s.mu.Lock()
		if s.metrics != nil {
			s.metrics.Rejected.Inc()
		}
		s.mu.Unlock()
		return Decision{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var stepStart time.Time
	if s.metrics != nil {
		stepStart = time.Now()
	}
	out, err := s.ctrl.Step(core.SlotEnv{
		LambdaRPS:      in.LambdaRPS,
		OnsiteKW:       in.OnsiteKW,
		PriceUSDPerKWh: in.PriceUSDPerKWh,
	})
	if err != nil {
		if s.metrics != nil {
			s.metrics.Rejected.Inc()
		}
		return Decision{}, err
	}
	slot := s.ctrl.Slot() // the slot just decided; Settle advances the cursor
	s.ctrl.Settle(out, in.OffsiteKWh)

	s.totalUSD += out.Cost.TotalUSD
	s.gridKWh += out.Cost.GridKWh
	h := foldUint64(s.hash, uint64(slot))
	for _, k := range out.Solution.Speeds {
		h = foldUint64(h, uint64(k))
	}
	for _, l := range out.Solution.Load {
		h = foldFloat(h, l)
	}
	h = foldFloat(h, out.Cost.TotalUSD)
	h = foldFloat(h, out.Cost.GridKWh)
	h = foldFloat(h, s.ctrl.Queue())
	s.hash = h

	s.lastSettle = time.Now()
	if s.metrics != nil {
		s.metrics.Slots.Inc()
		s.metrics.TotalUSD.Set(s.totalUSD)
		s.metrics.GridKWh.Set(s.gridKWh)
		if s.metrics.StepSeconds != nil {
			s.metrics.StepSeconds.Observe(s.lastSettle.Sub(stepStart).Seconds())
		}
	}
	if s.onSettle != nil {
		s.onSettle(s.ctrl.Slot())
	}
	return Decision{
		Slot:     slot,
		Speeds:   append([]int(nil), out.Solution.Speeds...),
		Active:   out.Active,
		Queue:    out.Queue,
		GridKWh:  out.Cost.GridKWh,
		TotalUSD: out.Cost.TotalUSD,
		Hash:     hashString(h),
	}, nil
}

func hashString(h uint64) string { return fmt.Sprintf("fnv1a:%016x", h) }

// State reports the service's running state.
func (s *Service) State() State {
	s.mu.Lock()
	defer s.mu.Unlock()
	return State{
		Slot:     s.ctrl.Slot(),
		Queue:    s.ctrl.Queue(),
		TotalUSD: s.totalUSD,
		GridKWh:  s.gridKWh,
		Hash:     hashString(s.hash),
		Restored: s.restored,
	}
}

// SettleAge reports how long ago the last slot settled; ok is false
// before the first settle (including right after a restore, which
// restores state but settles nothing). Readiness probes bound this age
// to catch a stalled feed.
func (s *Service) SettleAge() (time.Duration, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.lastSettle.IsZero() {
		return 0, false
	}
	return time.Since(s.lastSettle), true
}

// refreshSettleLag refreshes the settle-lag gauge; the Handler registers
// it as a registry scrape hook so the lag is current at scrape time
// rather than frozen at the last settle.
func (s *Service) refreshSettleLag() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.metrics == nil || s.metrics.SettleLagSeconds == nil || s.lastSettle.IsZero() {
		return
	}
	s.metrics.SettleLagSeconds.Set(time.Since(s.lastSettle).Seconds())
}

// Checkpoint snapshots the service (controller state included) between
// slots.
func (s *Service) Checkpoint() (Checkpoint, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.checkpointLocked()
}

func (s *Service) checkpointLocked() (Checkpoint, error) {
	ck, err := s.ctrl.Checkpoint()
	if err != nil {
		return Checkpoint{}, err
	}
	return Checkpoint{
		Version:    CheckpointVersion,
		Slot:       ck.Slot,
		TotalUSD:   s.totalUSD,
		GridKWh:    s.gridKWh,
		Hash:       s.hash,
		Controller: ck,
	}, nil
}

// RestoreFrom replaces the service's state with the snapshot. The wrapped
// controller must have been rebuilt with the same construction parameters
// as the checkpointed one. A different queue α or z is refused; the
// snapshot carries no way to verify the cluster, schedule or solver
// options, so those mismatches surface as diverging hashes, not errors.
func (s *Service) RestoreFrom(ck Checkpoint) error {
	if ck.Version != CheckpointVersion {
		return fmt.Errorf("serve: checkpoint version %d, want %d", ck.Version, CheckpointVersion)
	}
	if ck.Slot != ck.Controller.Slot {
		return fmt.Errorf("serve: checkpoint slot %d disagrees with controller slot %d", ck.Slot, ck.Controller.Slot)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.ctrl.RestoreFrom(ck.Controller); err != nil {
		return err
	}
	s.totalUSD = ck.TotalUSD
	s.gridKWh = ck.GridKWh
	s.hash = ck.Hash
	s.restored = true
	if s.metrics != nil {
		s.metrics.TotalUSD.Set(s.totalUSD)
		s.metrics.GridKWh.Set(s.gridKWh)
	}
	return nil
}
