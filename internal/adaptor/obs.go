package adaptor

import (
	"ccai/internal/core"
	"ccai/internal/obsv"
)

// Span sites, attribute keys and fixed attribute values of the
// Adaptor, resolved once: recording a span stores these handles as
// they are.
var (
	sitePostTags       = obsv.NewSite(obsv.TrackAdaptor, "post_tags")
	siteStageH2D       = obsv.NewSite(obsv.TrackAdaptor, "stage_h2d")
	siteStageVerified  = obsv.NewSite(obsv.TrackAdaptor, "stage_verified")
	siteSyncVerified   = obsv.NewSite(obsv.TrackAdaptor, "sync_verified")
	sitePrepareD2H     = obsv.NewSite(obsv.TrackAdaptor, "prepare_d2h")
	siteCollectD2H     = obsv.NewSite(obsv.TrackAdaptor, "collect_d2h")
	siteGuardedWrite   = obsv.NewSite(obsv.TrackAdaptor, "guarded_write")
	siteCompletionHead = obsv.NewSite(obsv.TrackAdaptor, "completion_head")
	siteDeviceRead     = obsv.NewSite(obsv.TrackAdaptor, "device_read")
	siteArmStep        = obsv.NewSite(obsv.TrackAdaptor, "arm_step")
	siteRekey          = obsv.NewSite(obsv.TrackAdaptor, "rekey")
	siteTeardown       = obsv.NewSite(obsv.TrackAdaptor, "teardown")
	siteStaleSuppress  = obsv.NewSite(obsv.TrackAdaptor, "recovery.stale_suppressed")
	siteRetry          = obsv.NewSite(obsv.TrackAdaptor, "recovery.retry")
	siteCryptoRetry    = obsv.NewSite(obsv.TrackAdaptor, "recovery.crypto_retry")
	siteRepostTags     = obsv.NewSite(obsv.TrackAdaptor, "recovery.repost_tags")
	siteFailClosed     = obsv.NewSite(obsv.TrackAdaptor, "recovery.fail_closed")

	keyRecords = obsv.NewKey("records")
	keyRegion  = obsv.NewKey("region")
	keyBytes   = obsv.NewKey("bytes")
	keyChunks  = obsv.NewKey("chunks")
	keyReg     = obsv.NewKey("reg")
	keySlot    = obsv.NewKey("slot")
	keyStream  = obsv.NewKey("stream")
	keyAddr    = obsv.NewKey("addr")
	keyAttempt = obsv.NewKey("attempt")
	keyOp      = obsv.NewKey("op")
	keyReason  = obsv.NewKey("reason")

	symRingDoorbell       = obsv.Intern("ring-doorbell")
	symRingDesync         = obsv.Intern("ring-desync")
	symRingHeadRegression = obsv.Intern("ring-head-regression")
)

// adaptorObs caches the Adaptor's observability handles: the tracer and
// the counts kept only in the registry. The zero value (all-nil handles)
// is the uninstrumented state: every increment and Begin/End call is
// nil-safe, so the hot path never branches on enablement.
type adaptorObs struct {
	tracer *obsv.Tracer

	rekeys                                  *obsv.Counter
	ringEntries, ringDoorbells, ringFlushes *obsv.Counter
}

// regionName renders a caller-supplied region name as a span
// attribute. The name arrives as a string through the staging API, so
// this is the one symbol lookup (lock-free) an observed staging call
// makes — per call, never per chunk — and none at all unobserved.
func (o *adaptorObs) regionName(name string) obsv.Field {
	if o.tracer == nil {
		return obsv.Field{}
	}
	return keyRegion.Str(obsv.Intern(name))
}

// SetObserver instruments the Adaptor and its active stream replicas;
// streams activated later (HWInit) inherit the hub. The hub's registry
// reads the counts IO and Recovery return. A nil hub stops the tracing
// and the registry-only counts; a registry keeps its reads.
func (a *Adaptor) SetObserver(h *obsv.Hub) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.hub = h
	track := obsv.TrackCrypto + "/adaptor"
	if a.h2d != nil {
		a.h2d.SetObserver(h, track, core.StreamH2D)
	}
	if a.d2h != nil {
		a.d2h.SetObserver(h, track, core.StreamD2H)
	}
	if a.config != nil {
		a.config.SetObserver(h, track, core.StreamConfig)
	}
	reg := h.Reg()
	a.obs = adaptorObs{
		tracer:        h.T(),
		rekeys:        reg.Counter("adaptor.rekeys"),
		ringEntries:   reg.Counter("adaptor.ring.entries"),
		ringDoorbells: reg.Counter("adaptor.ring.doorbells"),
		ringFlushes:   reg.Counter("adaptor.ring.flushes"),
	}
	reg.CounterFunc("adaptor.mmio.writes", func() uint64 { return a.IO().MMIOWrites })
	reg.CounterFunc("adaptor.mmio.reads", func() uint64 { return a.IO().MMIOReads })
	reg.CounterFunc("adaptor.recovery.timeouts", func() uint64 { return a.Recovery().Timeouts })
	reg.CounterFunc("adaptor.recovery.retries", func() uint64 { return a.Recovery().Retries })
	reg.CounterFunc("adaptor.recovery.recovered", func() uint64 { return a.Recovery().Recovered })
	reg.CounterFunc("adaptor.recovery.stale_suppressed", func() uint64 { return a.Recovery().StaleSuppressed })
	reg.CounterFunc("adaptor.recovery.crypto_retries", func() uint64 { return a.Recovery().CryptoRetries })
	reg.CounterFunc("adaptor.recovery.reposts", func() uint64 { return a.Recovery().Reposts })
	reg.CounterFunc("adaptor.recovery.exhausted", func() uint64 { return a.Recovery().Exhausted })
	reg.CounterFunc("adaptor.recovery.fail_closed", func() uint64 { return a.Recovery().FailClosed })
}
