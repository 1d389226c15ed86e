package telemetry

import (
	"crypto/rand"
	"crypto/subtle"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"ccai/internal/obsv"
)

// Options shapes an attached telemetry plane.
type Options struct {
	// Addr is the listen address; default "127.0.0.1:0" (loopback,
	// ephemeral port) so telemetry is never accidentally public.
	Addr string
	// AdminToken guards the global endpoints; generated when empty
	// (read it back via Plane.AdminToken).
	AdminToken string
}

// Plane is one live telemetry plane: HTTP server + audit log + SLO
// monitor, attached to an obsv hub as its event sink.
type Plane struct {
	hub     *obsv.Hub
	Audit   *Log
	Monitor *Monitor

	admin string

	mu      sync.Mutex
	tenants map[string]string // tenant label -> bearer token

	srv *http.Server
	lis net.Listener
}

// ErrNoHub is returned when attaching telemetry to a platform whose
// observability is off: the plane is a view over the obsv hub and has
// nothing to serve without one.
var ErrNoHub = errors.New("telemetry: observability is off (no obsv hub)")

func newToken() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(err) // crypto/rand failure is unrecoverable
	}
	return hex.EncodeToString(b[:])
}

// Attach builds the plane, installs its audit log + monitor as the
// hub's event sink, and starts serving. The caller owns Close.
func Attach(hub *obsv.Hub, opts Options) (*Plane, error) {
	if hub == nil {
		return nil, ErrNoHub
	}
	if opts.Addr == "" {
		opts.Addr = "127.0.0.1:0"
	}
	if opts.AdminToken == "" {
		opts.AdminToken = newToken()
	}
	p := &Plane{
		hub:     hub,
		Audit:   NewLog(),
		Monitor: NewMonitor(hub),
		admin:   opts.AdminToken,
		tenants: make(map[string]string),
	}

	// One sink fans into both consumers: the tamper-evident record and
	// the rolling security-event rates on the scrape page.
	hub.SetEventSink(func(kind, tenant, detail string) {
		p.Audit.Append(kind, tenant, detail)
		p.Monitor.RecordEvent(kind)
	})

	lis, err := net.Listen("tcp", opts.Addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: listen %s: %w", opts.Addr, err)
	}
	p.lis = lis

	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", p.handleHealth)
	mux.HandleFunc("GET /metrics", p.adminOnly(p.handleMetrics))
	mux.HandleFunc("GET /metrics.json", p.adminOnly(p.handleMetricsJSON))
	mux.HandleFunc("GET /slo", p.adminOnly(p.handleSLO))
	mux.HandleFunc("GET /audit", p.adminOnly(p.handleAudit))
	mux.HandleFunc("GET /tenant/{label}/metrics", p.tenantScoped(p.handleTenantMetrics))
	mux.HandleFunc("GET /tenant/{label}/metrics.json", p.tenantScoped(p.handleTenantMetricsJSON))

	p.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go p.srv.Serve(lis) //nolint:errcheck // Serve returns ErrServerClosed on Close
	return p, nil
}

// Close detaches the sink and stops the server.
func (p *Plane) Close() error {
	if p == nil {
		return nil
	}
	p.hub.SetEventSink(nil)
	if p.srv != nil {
		return p.srv.Close()
	}
	return nil
}

// Addr reports the bound listen address (host:port).
func (p *Plane) Addr() string {
	if p == nil || p.lis == nil {
		return ""
	}
	return p.lis.Addr().String()
}

// URL reports the base URL of the plane.
func (p *Plane) URL() string { return "http://" + p.Addr() }

// AdminToken returns the bearer token guarding the global endpoints.
func (p *Plane) AdminToken() string {
	if p == nil {
		return ""
	}
	return p.admin
}

// RegisterTenant mints (or returns the existing) bearer token scoping
// the tenant's per-tenant endpoints. Labels follow the scheduler's
// tenant labels ("0", "1", ...).
func (p *Plane) RegisterTenant(label string) string {
	if p == nil {
		return ""
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	tok, ok := p.tenants[label]
	if !ok {
		tok = newToken()
		p.tenants[label] = tok
	}
	return tok
}

// TenantToken reports the tenant's token ("" when unregistered).
func (p *Plane) TenantToken(label string) string {
	if p == nil {
		return ""
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.tenants[label]
}

// bearer extracts the request's bearer token.
func bearer(r *http.Request) string {
	h := r.Header.Get("Authorization")
	if tok, ok := strings.CutPrefix(h, "Bearer "); ok {
		return tok
	}
	return ""
}

func tokenEq(a, b string) bool {
	return a != "" && subtle.ConstantTimeCompare([]byte(a), []byte(b)) == 1
}

// isAdmin reports whether the request carries the admin token.
func (p *Plane) isAdmin(r *http.Request) bool { return tokenEq(bearer(r), p.admin) }

// adminOnly guards global endpoints: they expose every tenant's
// series, so only the platform operator may read them.
func (p *Plane) adminOnly(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !p.isAdmin(r) {
			http.Error(w, "unauthorized", http.StatusUnauthorized)
			return
		}
		h(w, r)
	}
}

// tenantScoped guards per-tenant endpoints: the admin token or the
// exact tenant's token passes; another tenant's valid token is 403
// (authenticated, wrong scope); anything else is 401.
func (p *Plane) tenantScoped(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		label := r.PathValue("label")
		tok := bearer(r)
		if p.isAdmin(r) {
			h(w, r)
			return
		}
		p.mu.Lock()
		want, registered := p.tenants[label]
		var owner string
		for l, t := range p.tenants {
			if tokenEq(tok, t) {
				owner = l
				break
			}
		}
		p.mu.Unlock()
		switch {
		case registered && tokenEq(tok, want):
			h(w, r)
		case owner != "": // someone else's valid token
			http.Error(w, "forbidden", http.StatusForbidden)
		default:
			http.Error(w, "unauthorized", http.StatusUnauthorized)
		}
	}
}

// snapshot refreshes the SLO gauges, then snapshots the registry so
// the scrape includes up-to-date burn rates.
func (p *Plane) snapshot() obsv.Snapshot {
	p.Monitor.Check()
	return p.hub.Reg().Snapshot()
}

func (p *Plane) handleHealth(w http.ResponseWriter, r *http.Request) {
	st := p.Monitor.Check()
	count, head := p.Audit.Head()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{ //nolint:errcheck
		"status":       "ok",
		"activeAlerts": st.ActiveAlerts,
		"audit":        map[string]any{"count": count, "head": head},
	})
}

func (p *Plane) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	fmt.Fprint(w, RenderProm(p.snapshot()))
}

func (p *Plane) handleMetricsJSON(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(p.snapshot()) //nolint:errcheck
}

func (p *Plane) handleSLO(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(p.Monitor.Check()) //nolint:errcheck
}

func (p *Plane) handleAudit(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	p.Audit.WriteJSONL(w) //nolint:errcheck
}

func (p *Plane) handleTenantMetrics(w http.ResponseWriter, r *http.Request) {
	snap := FilterSnapshot(p.snapshot(), r.PathValue("label"))
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	fmt.Fprint(w, RenderProm(snap))
}

func (p *Plane) handleTenantMetricsJSON(w http.ResponseWriter, r *http.Request) {
	snap := FilterSnapshot(p.snapshot(), r.PathValue("label"))
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(snap) //nolint:errcheck
}
