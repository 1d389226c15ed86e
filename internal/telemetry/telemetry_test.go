package telemetry

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"ccai/internal/obsv"
)

// fakeClock is a deterministic ns clock for audit/monitor tests.
type fakeClock struct{ t int64 }

func (c *fakeClock) now() int64           { return c.t }
func (c *fakeClock) tick(d time.Duration) { c.t += int64(d) }

// logAt is an audit log stamped by clk.
func logAt(clk *fakeClock) *Log {
	l := NewLog()
	l.now = clk.now
	return l
}

// monitorAt is a monitor clocked by clk.
func monitorAt(clk *fakeClock, hub *obsv.Hub) *Monitor {
	m := NewMonitor(hub)
	m.now = clk.now
	return m
}

func TestAuditChainVerify(t *testing.T) {
	clk := &fakeClock{}
	l := logAt(clk)
	l.Append(obsv.EvAttest, "0", "gen=1")
	clk.tick(time.Second)
	l.Append(obsv.EvRekey, "", "stream=h2d")
	l.Append(obsv.EvFailClosed, "1", "reason=crypto")

	if n, _, err := Verify(l.Entries()); err != nil || n != 3 {
		t.Fatalf("Verify = %d, %v", n, err)
	}
	var buf bytes.Buffer
	if err := l.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	n, head, err := VerifyJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil || n != 3 {
		t.Fatalf("VerifyJSONL = %d, %v", n, err)
	}
	if _, h := l.Head(); h != head {
		t.Fatalf("head mismatch: %s vs %s", h, head)
	}
}

func TestAuditDetectsMutation(t *testing.T) {
	l := logAt(&fakeClock{})
	for i := 0; i < 10; i++ {
		l.Append(obsv.EvRekey, "", "stream=h2d")
	}
	var buf bytes.Buffer
	if err := l.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}

	// Flip a single byte inside an entry's detail field.
	raw := buf.Bytes()
	i := bytes.Index(raw, []byte("h2d"))
	tampered := append([]byte(nil), raw...)
	tampered[i] ^= 1
	if _, _, err := VerifyJSONL(bytes.NewReader(tampered)); err == nil {
		t.Fatal("flipped byte not detected")
	}

	// Truncate the trailer.
	lines := bytes.Split(bytes.TrimSpace(raw), []byte("\n"))
	noTrailer := bytes.Join(lines[:len(lines)-1], []byte("\n"))
	if _, _, err := VerifyJSONL(bytes.NewReader(noTrailer)); err == nil {
		t.Fatal("missing trailer not detected")
	}

	// Truncate tail entries but keep the trailer.
	short := append(bytes.Join(lines[:len(lines)-3], []byte("\n")), '\n')
	short = append(short, lines[len(lines)-1]...)
	if _, _, err := VerifyJSONL(bytes.NewReader(short)); err == nil {
		t.Fatal("truncated entries not detected")
	}

	// Reordering two entries breaks the chain.
	entries := l.Entries()
	entries[2], entries[3] = entries[3], entries[2]
	if _, _, err := Verify(entries); err == nil {
		t.Fatal("reordered entries not detected")
	}
}

func TestAuditCapDropsNewEntries(t *testing.T) {
	l := logAt(&fakeClock{})
	l.cap = 4
	for i := 0; i < 10; i++ {
		l.Append(obsv.EvRogue, "", "drop")
	}
	if n := len(l.Entries()); n != 4 {
		t.Fatalf("len=%d, want the cap of 4", n)
	}
	if _, _, err := Verify(l.Entries()); err != nil {
		t.Fatalf("capped chain must stay verifiable: %v", err)
	}
	var buf bytes.Buffer
	l.WriteJSONL(&buf)
	if !strings.Contains(buf.String(), `"dropped":6`) {
		t.Fatalf("trailer does not count the 6 entries past the cap:\n%s", buf.String())
	}
	if _, _, err := VerifyJSONL(&buf); err != nil {
		t.Fatalf("capped JSONL must verify: %v", err)
	}
}

func TestMeterSummaryMatchesSoakMath(t *testing.T) {
	m := NewMeter(3)
	// Tenant 0: 4 completions with 10..40 ms waits; tenant 1: 3 with
	// 100 ms; tenant 2: 3 near-zero waits.
	for i := int64(1); i <= 4; i++ {
		m.Offered()
		m.Completed(0, i*10_000_000, i*20_000_000)
	}
	for i := 0; i < 3; i++ {
		m.Offered()
		m.Completed(1, 100_000_000, 150_000_000)
	}
	for i := 0; i < 3; i++ {
		m.Offered()
		m.Completed(2, 1, 2)
	}
	m.Offered()
	m.Rejected()
	m.Offered()
	m.Failed()

	s := m.Summary()
	if s.Offered != 12 || s.Completed != 10 || s.Rejected != 1 || s.Failed != 1 {
		t.Fatalf("counts: %+v", s)
	}
	if want := float64(10) / 12; s.Availability != want {
		t.Fatalf("availability = %v, want %v", s.Availability, want)
	}
	// Sorted waits (ms): ~0 ×3, 10, 20, 30, 40, 100 ×3.
	// percentileMs index (10*50)/100 = 5 → 30 ms; (10*99)/100 = 9 → 100 ms.
	if s.QueueWaitP50Ms != 30 || s.QueueWaitP99Ms != 100 {
		t.Fatalf("p50=%v p99=%v", s.QueueWaitP50Ms, s.QueueWaitP99Ms)
	}
	// Tenant means (ms): 25, 100, ~0 → sorted median 25, max 100;
	// spread = (100+1)/(25+1) with the 1 ms floor on both.
	if want := 101.0 / 26.0; s.FairnessSpread != want {
		t.Fatalf("fairness = %v, want %v", s.FairnessSpread, want)
	}

	// Empty meter: availability 1 by definition.
	if s := NewMeter(0).Summary(); s.Availability != 1 || s.FairnessSpread != 1 {
		t.Fatalf("empty summary: %+v", s)
	}
}

func TestMonitorBurnAlerts(t *testing.T) {
	clk := &fakeClock{t: int64(time.Hour)}
	hub := obsv.NewHub()
	log := logAt(clk)
	hub.SetEventSink(log.Append)
	m := monitorAt(clk, hub)

	// Healthy traffic: no alerts.
	for i := 0; i < 100; i++ {
		m.RecordOutcome(true, int64(time.Millisecond))
		clk.tick(time.Second)
	}
	if st := m.Check(); len(st.ActiveAlerts) != 0 {
		t.Fatalf("healthy traffic alerted: %v", st.ActiveAlerts)
	}

	// Total outage: burn = 1/(1-0.999) = 1000 in every window.
	for i := 0; i < 100; i++ {
		m.RecordOutcome(false, 0)
		clk.tick(time.Second)
	}
	st := m.Check()
	if !hasAlert(st, AlertPage) || !hasAlert(st, AlertTicket) {
		t.Fatalf("outage did not page: %+v", st)
	}
	if hub.Reg().Gauge(obsv.Name("slo.alert", "name", AlertPage)).Value() != 1 {
		t.Fatal("alert gauge not set")
	}
	kinds := log.CountKinds()
	if kinds[obsv.EvSLOAlert] == 0 {
		t.Fatal("no slo-alert audit event")
	}

	// Recovery: a full window of successes clears the alerts.
	for i := 0; i < 4000; i++ {
		m.RecordOutcome(true, int64(time.Millisecond))
		clk.tick(time.Second)
	}
	st = m.Check()
	if len(st.ActiveAlerts) != 0 {
		t.Fatalf("alerts did not clear: %v", st.ActiveAlerts)
	}
	if log.CountKinds()[obsv.EvSLOClear] == 0 {
		t.Fatal("no slo-clear audit event")
	}
}

func TestMonitorP99Alert(t *testing.T) {
	clk := &fakeClock{t: int64(time.Hour)}
	m := monitorAt(clk, nil)
	for i := 0; i < 50; i++ {
		m.RecordOutcome(true, int64(time.Second)) // way over budget
		clk.tick(time.Second)
	}
	if st := m.Check(); !hasAlert(st, AlertP99) {
		t.Fatalf("p99 breach did not alert: %+v", st)
	}
	// Vacuity guard: a handful of slow samples must not page.
	m2 := monitorAt(clk, nil)
	for i := 0; i < 5; i++ {
		m2.RecordOutcome(true, int64(time.Second))
	}
	if st := m2.Check(); hasAlert(st, AlertP99) {
		t.Fatal("below MinSamples yet alerted")
	}
}

// TestMonitorSubMillisecondP99 pins the p99 export at microsecond
// resolution: a tail entirely below one millisecond must surface as a
// non-zero gauge, well inside the 500 ms budget. The old
// int64(P99WaitMs) gauge truncated this whole regime to a flat 0 ms.
func TestMonitorSubMillisecondP99(t *testing.T) {
	clk := &fakeClock{t: int64(time.Hour)}
	hub := obsv.NewHub()
	m := monitorAt(clk, hub)
	for i := 0; i < 100; i++ {
		m.RecordOutcome(true, int64(500*time.Microsecond))
		clk.tick(time.Second)
	}
	st := m.Check()
	if hasAlert(st, AlertP99) {
		t.Fatalf("a sub-millisecond tail breached the 500 ms budget: %+v", st)
	}
	// All samples land in the (0, 1ms] bucket; interpolation puts the
	// p99 at 990 µs exactly.
	w5 := st.Windows[0]
	if w5.P99WaitUs != 990 {
		t.Fatalf("p99_wait_us = %d, want 990", w5.P99WaitUs)
	}
	if g := hub.Reg().Gauge(obsv.Name("slo.p99_wait_us", "window", "5m")).Value(); g != 990 {
		t.Fatalf("slo.p99_wait_us gauge = %d, want 990 (ms truncation would read 0)", g)
	}
}

func hasAlert(st Status, name string) bool {
	for _, a := range st.ActiveAlerts {
		if a == name {
			return true
		}
	}
	return false
}

func TestRenderPromAndFilter(t *testing.T) {
	r := obsv.NewRegistry()
	r.Counter(obsv.Name("sched.admitted", "tenant", "0")).Add(5)
	r.Counter(obsv.Name("sched.admitted", "tenant", "1")).Add(7)
	r.Counter("task.runs").Inc()
	r.Gauge(obsv.Name("sched.queue_depth", "tenant", "0")).Set(2)
	h := r.Histogram(obsv.Name("sched.queue_wait_ns", "tenant", "0"), obsv.WaitBuckets())
	h.ObserveExemplar(2_000_000, 41)
	h.ObserveExemplar(7_000_000, 0)

	text := RenderProm(r.Snapshot())
	for _, want := range []string{
		`ccai_sched_admitted{tenant="0"} 5`,
		`ccai_sched_admitted{tenant="1"} 7`,
		`ccai_task_runs 1`,
		`ccai_sched_queue_depth{tenant="0"} 2`,
		`ccai_sched_queue_wait_ns_bucket{tenant="0",le="5000000"} 1 # {task="41"} 2000000`,
		`ccai_sched_queue_wait_ns_bucket{tenant="0",le="+Inf"} 2`,
		`ccai_sched_queue_wait_ns_count{tenant="0"} 2`,
		`ccai_sched_queue_wait_ns{tenant="0",quantile="0.5"}`,
		`ccai_sched_queue_wait_ns{tenant="0",quantile="0.99"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("RenderProm missing %q:\n%s", want, text)
		}
	}

	t0 := FilterSnapshot(r.Snapshot(), "0")
	out := RenderProm(t0)
	if strings.Contains(out, `tenant="1"`) {
		t.Fatalf("tenant-0 view leaks tenant 1:\n%s", out)
	}
	if strings.Contains(out, "task_runs") {
		t.Fatalf("tenant view leaks global series:\n%s", out)
	}
	if !strings.Contains(out, `ccai_sched_admitted{tenant="0"} 5`) {
		t.Fatalf("tenant view missing own series:\n%s", out)
	}
}

func TestServerAuthMatrix(t *testing.T) {
	hub := obsv.NewHub()
	hub.Reg().Counter(obsv.Name("sched.admitted", "tenant", "0")).Inc()
	hub.Reg().Counter(obsv.Name("sched.admitted", "tenant", "1")).Inc()
	p, err := Attach(hub, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	tok0 := p.RegisterTenant("0")
	tok1 := p.RegisterTenant("1")
	admin := p.AdminToken()

	hub.Eventf(obsv.EvAttest, "0", "gen=1")

	get := func(path, token string) (int, string) {
		req, _ := http.NewRequest("GET", p.URL()+path, nil)
		if token != "" {
			req.Header.Set("Authorization", "Bearer "+token)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	for _, tc := range []struct {
		path, token string
		want        int
	}{
		{"/healthz", "", 200},
		{"/metrics", admin, 200},
		{"/metrics", "", 401},
		{"/metrics", tok0, 401}, // tenant tokens never open global views
		{"/metrics.json", admin, 200},
		{"/slo", admin, 200},
		{"/audit", admin, 200},
		{"/audit", tok0, 401},
		{"/tenant/0/metrics", tok0, 200},
		{"/tenant/0/metrics", admin, 200},
		{"/tenant/0/metrics", tok1, 403}, // authenticated, wrong scope
		{"/tenant/0/metrics", "garbage", 401},
		{"/tenant/0/metrics", "", 401},
		{"/tenant/9/metrics", tok0, 403}, // unregistered tenant, valid token
		{"/tenant/0/metrics.json", tok0, 200},
	} {
		if got, _ := get(tc.path, tc.token); got != tc.want {
			t.Errorf("GET %s token=%q: status %d, want %d", tc.path, tc.token, got, tc.want)
		}
	}

	// Tenant 0's view never contains tenant 1's series.
	_, body := get("/tenant/0/metrics", tok0)
	if strings.Contains(body, `tenant="1"`) {
		t.Fatalf("cross-tenant leak:\n%s", body)
	}

	// The audit endpoint round-trips through the verifier.
	_, audit := get("/audit", admin)
	n, _, err := VerifyJSONL(strings.NewReader(audit))
	if err != nil || n == 0 {
		t.Fatalf("served audit log does not verify: n=%d err=%v", n, err)
	}

	// Health is JSON and carries no metric series.
	_, health := get("/healthz", "")
	var doc map[string]any
	if err := json.Unmarshal([]byte(health), &doc); err != nil || doc["status"] != "ok" {
		t.Fatalf("health = %q, err %v", health, err)
	}
}
