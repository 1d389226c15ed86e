// Package telemetry is the live telemetry plane of the ccAI
// reproduction: an HTTP exposition server over the internal/obsv
// metrics hub, a hash-chained tamper-evident security audit log, and
// always-on rolling-window SLO monitors with multi-window burn-rate
// alerts.
//
// The same confidentiality rule as internal/obsv applies everywhere:
// everything this package stores or serves is metadata — names,
// counters, sizes, reasons — never payload, key, IV or tag bytes, and
// a tenant-scoped view never contains another tenant's series.
package telemetry

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"ccai/internal/obsv"
)

// PercentileMs picks the p-th percentile of sorted ns samples, as ms.
// (Extracted from internal/soak; the soak scorecard's byte-identical
// determinism contract depends on this exact index arithmetic.)
func PercentileMs(sorted []int64, p int) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := (len(sorted) * p) / 100
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i]) / 1e6
}

// FairnessSpread is the DRR fairness meter: each tenant with enough
// completions contributes its mean queue wait; the spread is the worst
// tenant's mean over the median tenant's, with a 1 ms floor on both so
// near-zero waits cannot explode the ratio. (Extracted from
// internal/soak, same determinism contract.)
func FairnessSpread(waitSums, counts []int64) float64 {
	var means []float64
	for i := range counts {
		if counts[i] >= 3 {
			means = append(means, float64(waitSums[i])/float64(counts[i]))
		}
	}
	if len(means) < 2 {
		return 1
	}
	sort.Float64s(means)
	const floor = 1e6 // 1 ms in ns
	max := means[len(means)-1] + floor
	med := means[len(means)/2] + floor
	return max / med
}

// Meter accumulates one serving run's SLO inputs: offered/served
// outcome counts, queue-wait and end-to-end latency samples, and
// per-tenant wait sums for the fairness spread. It is the soak
// harness's meter lifted out of internal/soak so live serving and the
// soak share one implementation. Safe for concurrent use.
type Meter struct {
	mu                                             sync.Mutex
	offered, completed, rejected, failed, canceled int64
	queueWaits, e2es                               []int64 // ns, completion order
	perTenantWait                                  []int64
	perTenantN                                     []int64
}

// NewMeter builds a meter tracking the given tenant count.
func NewMeter(tenants int) *Meter {
	return &Meter{
		perTenantWait: make([]int64, tenants),
		perTenantN:    make([]int64, tenants),
	}
}

// Offered books one admitted-or-shed arrival.
func (m *Meter) Offered() {
	m.mu.Lock()
	m.offered++
	m.mu.Unlock()
}

// Rejected books one shed arrival (admission or queue-full).
func (m *Meter) Rejected() {
	m.mu.Lock()
	m.rejected++
	m.mu.Unlock()
}

// Failed books one request that entered service and errored.
func (m *Meter) Failed() {
	m.mu.Lock()
	m.failed++
	m.mu.Unlock()
}

// Canceled books one request canceled before or during service.
func (m *Meter) Canceled() {
	m.mu.Lock()
	m.canceled++
	m.mu.Unlock()
}

// Completed books one successful request: its queue wait, its
// end-to-end latency, and the tenant it served (out-of-range tenants
// still count toward totals but not fairness).
func (m *Meter) Completed(tenant int, waitNs, e2eNs int64) {
	m.mu.Lock()
	m.completed++
	m.queueWaits = append(m.queueWaits, waitNs)
	m.e2es = append(m.e2es, e2eNs)
	if tenant >= 0 && tenant < len(m.perTenantWait) {
		m.perTenantWait[tenant] += waitNs
		m.perTenantN[tenant]++
	}
	m.mu.Unlock()
}

// Summary is the meter's derived SLO verdict.
type Summary struct {
	Offered, Completed, Rejected, Failed, Canceled int64
	Availability                                   float64
	QueueWaitP50Ms, QueueWaitP99Ms                 float64
	E2EP50Ms, E2EP99Ms                             float64
	FairnessSpread                                 float64
}

// Summary computes availability, wait/e2e percentiles and the fairness
// spread exactly as the soak scorecard did before extraction.
func (m *Meter) Summary() Summary {
	m.mu.Lock()
	qw := append([]int64(nil), m.queueWaits...)
	ee := append([]int64(nil), m.e2es...)
	s := Summary{
		Offered: m.offered, Completed: m.completed, Rejected: m.rejected,
		Failed: m.failed, Canceled: m.canceled,
	}
	waitSums := append([]int64(nil), m.perTenantWait...)
	counts := append([]int64(nil), m.perTenantN...)
	m.mu.Unlock()

	sort.Slice(qw, func(i, j int) bool { return qw[i] < qw[j] })
	sort.Slice(ee, func(i, j int) bool { return ee[i] < ee[j] })
	s.QueueWaitP50Ms = PercentileMs(qw, 50)
	s.QueueWaitP99Ms = PercentileMs(qw, 99)
	s.E2EP50Ms = PercentileMs(ee, 50)
	s.E2EP99Ms = PercentileMs(ee, 99)
	s.FairnessSpread = FairnessSpread(waitSums, counts)
	if s.Offered > 0 {
		s.Availability = float64(s.Completed) / float64(s.Offered)
	} else {
		s.Availability = 1
	}
	return s
}

// The monitor's shape. Burn rate is (1-availability)/(1-sloObjective):
// burn 1 consumes the error budget exactly at the sustainable rate. The
// rolling queue-wait p99 budget is the soak harness's 500 ms. The ring
// holds sloWindow (the longest lookback) in sloGrain buckets. A window
// with fewer than sloMinSamples outcomes never alerts, which guards the
// alerts against vacuity.
const (
	sloObjective   = 0.999
	sloP99BudgetNs = 500_000_000
	sloGrain       = 10 * time.Second
	sloWindow      = time.Hour
	sloMinSamples  = 20
)

// monBucket is one ring slot: outcome counts, a fixed queue-wait
// histogram (WaitBuckets bounds), and per-kind security-event counts.
type monBucket struct {
	good, bad uint64
	waits     []uint64
	events    map[string]uint64
}

// Monitor is the always-on production version of the soak SLO meters:
// a ring of time buckets over which it computes windowed availability,
// multi-window burn rates, and a rolling queue-wait p99, raising and
// clearing alerts on transitions. The multi-window rules are the SRE
// classics: page when both the 5 m and 1 h burn exceed 14.4 (budget
// gone in ~2 days), ticket when both the 30 m and 1 h burn exceed 6.
type Monitor struct {
	now    func() int64 // ns; the wall clock, in-package tests inject one
	bounds []int64

	mu     sync.Mutex
	ring   []monBucket
	slot   int64 // absolute slot index of ring position lastIdx
	active map[string]bool

	hub *obsv.Hub
}

// Alert names surfaced as metrics and audit events.
const (
	AlertPage   = "availability-page"
	AlertTicket = "availability-ticket"
	AlertP99    = "queue-wait-p99"
)

// NewMonitor builds a monitor publishing alerts through hub (nil is
// allowed: the monitor still tracks, it just cannot publish).
func NewMonitor(hub *obsv.Hub) *Monitor {
	m := &Monitor{
		now:    func() int64 { return time.Now().UnixNano() },
		bounds: obsv.WaitBuckets(),
		ring:   make([]monBucket, sloWindow/sloGrain),
		slot:   -1,
		active: make(map[string]bool),
		hub:    hub,
	}
	for i := range m.ring {
		m.ring[i].waits = make([]uint64, len(m.bounds)+1)
		m.ring[i].events = make(map[string]uint64)
	}
	return m
}

// advanceLocked rotates the ring to the slot containing now, zeroing
// every slot skipped since the last sample.
func (m *Monitor) advanceLocked(now int64) int {
	cur := now / int64(sloGrain)
	if m.slot < 0 {
		m.slot = cur
	}
	for m.slot < cur {
		m.slot++
		b := &m.ring[int(m.slot%int64(len(m.ring)))]
		b.good, b.bad = 0, 0
		for i := range b.waits {
			b.waits[i] = 0
		}
		for k := range b.events {
			delete(b.events, k)
		}
	}
	return int(m.slot % int64(len(m.ring)))
}

// RecordOutcome books one served request: whether it counted toward
// availability and (for good outcomes) its queue wait in ns.
func (m *Monitor) RecordOutcome(ok bool, waitNs int64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	i := m.advanceLocked(m.now())
	b := &m.ring[i]
	if ok {
		b.good++
		j := sort.Search(len(m.bounds), func(j int) bool { return waitNs <= m.bounds[j] })
		b.waits[j]++
	} else {
		b.bad++
	}
	m.mu.Unlock()
}

// RecordEvent books one security event (rekey, fail-closed, ...) into
// the current window; the audit sink feeds it so the scrape page shows
// rolling security-lifecycle rates next to the latency SLOs.
func (m *Monitor) RecordEvent(kind string) {
	if m == nil {
		return
	}
	m.mu.Lock()
	i := m.advanceLocked(m.now())
	m.ring[i].events[kind]++
	m.mu.Unlock()
}

// windowLocked sums the last d worth of buckets (including current).
func (m *Monitor) windowLocked(d time.Duration) (good, bad uint64, waits []uint64, events map[string]uint64) {
	n := int(d / sloGrain)
	if n < 1 {
		n = 1
	}
	if n > len(m.ring) {
		n = len(m.ring)
	}
	waits = make([]uint64, len(m.bounds)+1)
	events = make(map[string]uint64)
	if m.slot < 0 {
		return
	}
	for k := 0; k < n && int64(k) <= m.slot; k++ {
		b := &m.ring[int((m.slot-int64(k))%int64(len(m.ring)))]
		good += b.good
		bad += b.bad
		for i, w := range b.waits {
			waits[i] += w
		}
		for ev, c := range b.events {
			events[ev] += c
		}
	}
	return
}

// WindowStatus is one lookback window's derived SLO state. The p99
// queue wait is exported twice: the float milliseconds for humans and
// an integer microsecond field for gauges and tooling — integer
// milliseconds truncated every sub-millisecond tail to 0 and could
// never trip a small budget.
type WindowStatus struct {
	Window       string  `json:"window"`
	Samples      uint64  `json:"samples"`
	Availability float64 `json:"availability"`
	BurnRate     float64 `json:"burn_rate"`
	P99WaitMs    float64 `json:"p99_wait_ms"`
	P99WaitUs    int64   `json:"p99_wait_us"`
}

// Status is the monitor's full derived state, served on /slo.
type Status struct {
	Objective    float64           `json:"objective"`
	P99BudgetMs  float64           `json:"p99_budget_ms"`
	Windows      []WindowStatus    `json:"windows"`
	ActiveAlerts []string          `json:"active_alerts"`
	WindowEvents map[string]uint64 `json:"window_events"`
}

func (m *Monitor) windowStatusLocked(label string, d time.Duration) WindowStatus {
	good, bad, waits, _ := m.windowLocked(d)
	ws := WindowStatus{Window: label, Samples: good + bad, Availability: 1}
	if ws.Samples > 0 {
		ws.Availability = float64(good) / float64(ws.Samples)
		ws.BurnRate = (1 - ws.Availability) / (1 - sloObjective)
	}
	var count uint64
	for _, w := range waits {
		count += w
	}
	hv := obsv.HistValue{Count: count, Bounds: m.bounds, Buckets: waits}
	p99ns := hv.Quantile(0.99)
	ws.P99WaitMs = p99ns / 1e6
	ws.P99WaitUs = int64(p99ns / 1e3)
	return ws
}

// Check re-evaluates every alert rule, publishes burn gauges, and
// emits slo-alert / slo-clear audit events on transitions. Scrape
// handlers call it so the page is never stale.
func (m *Monitor) Check() Status {
	if m == nil {
		return Status{}
	}
	m.mu.Lock()
	m.advanceLocked(m.now())
	w5 := m.windowStatusLocked("5m", 5*time.Minute)
	w30 := m.windowStatusLocked("30m", 30*time.Minute)
	w60 := m.windowStatusLocked("1h", time.Hour)
	_, _, _, events := m.windowLocked(time.Hour)

	st := Status{
		Objective:    sloObjective,
		P99BudgetMs:  float64(sloP99BudgetNs) / 1e6,
		Windows:      []WindowStatus{w5, w30, w60},
		WindowEvents: events,
	}

	enough := func(ws WindowStatus) bool { return ws.Samples >= sloMinSamples }
	fire := map[string]bool{
		AlertPage:   enough(w5) && w5.BurnRate >= 14.4 && w60.BurnRate >= 14.4,
		AlertTicket: enough(w30) && w30.BurnRate >= 6 && w60.BurnRate >= 6,
		AlertP99:    enough(w5) && w5.P99WaitMs > st.P99BudgetMs,
	}
	type transition struct {
		name   string
		firing bool
		detail string
	}
	var trans []transition
	for _, name := range []string{AlertPage, AlertTicket, AlertP99} {
		if fire[name] != m.active[name] {
			m.active[name] = fire[name]
			trans = append(trans, transition{name, fire[name],
				alertDetail(name, w5, w30, w60, st.P99BudgetMs)})
		}
		if fire[name] {
			st.ActiveAlerts = append(st.ActiveAlerts, name)
		}
	}
	m.mu.Unlock()

	if reg := m.hub.Reg(); reg != nil {
		for _, ws := range st.Windows {
			reg.Gauge(obsv.Name("slo.burn_milli", "window", ws.Window)).Set(int64(ws.BurnRate * 1000))
			// Microsecond gauge: int64(P99WaitMs) rounded sub-millisecond
			// tails down to a permanent 0.
			reg.Gauge(obsv.Name("slo.p99_wait_us", "window", ws.Window)).Set(ws.P99WaitUs)
		}
		for _, name := range []string{AlertPage, AlertTicket, AlertP99} {
			v := int64(0)
			if fire[name] {
				v = 1
			}
			reg.Gauge(obsv.Name("slo.alert", "name", name)).Set(v)
		}
	}
	for _, tr := range trans {
		kind := obsv.EvSLOClear
		if tr.firing {
			kind = obsv.EvSLOAlert
		}
		m.hub.Eventf(kind, "", "%s", tr.detail)
	}
	return st
}

func alertDetail(name string, w5, w30, w60 WindowStatus, budgetMs float64) string {
	switch name {
	case AlertPage:
		return fmt.Sprintf("alert=%s burn5m=%.1f burn1h=%.1f", name, w5.BurnRate, w60.BurnRate)
	case AlertTicket:
		return fmt.Sprintf("alert=%s burn30m=%.1f burn1h=%.1f", name, w30.BurnRate, w60.BurnRate)
	default:
		return fmt.Sprintf("alert=%s p99_5m_us=%d budget_ms=%.1f", name, w5.P99WaitUs, budgetMs)
	}
}
