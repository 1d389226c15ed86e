package core

import (
	"ccai/internal/obsv"
	"ccai/internal/pcie"
)

// Span sites, attribute keys and value symbols of the PCIe-SC, resolved
// once at package initialisation: recording a span stores these handles
// as they are (obsv.Tracer.Start), with no lookup per span.
var (
	siteClassify        = obsv.NewSite(obsv.TrackFilter, "classify")
	siteTagMatch        = obsv.NewSite(obsv.TrackSC, "tag_match")
	siteGuardedMMIO     = obsv.NewSite(obsv.TrackSC, "guarded_mmio")
	siteDecryptReadSpan = obsv.NewSite(obsv.TrackSC, "decrypt_read_span")
	siteVerifiedRead    = obsv.NewSite(obsv.TrackSC, "verified_read")
	siteEncryptWrite    = obsv.NewSite(obsv.TrackSC, "encrypt_write")
	siteTeardown        = obsv.NewSite(obsv.TrackSC, "teardown")

	keyKind    = obsv.NewKey("kind")
	keyAddr    = obsv.NewKey("addr")
	keyAction  = obsv.NewKey("action")
	keyRule    = obsv.NewKey("rule")
	keyStage   = obsv.NewKey("stage")
	keyStream  = obsv.NewKey("stream")
	keyChunk   = obsv.NewKey("chunk")
	keyChunks  = obsv.NewKey("chunks")
	keyMatched = obsv.NewKey("matched")
	keyBytes   = obsv.NewKey("bytes")
	keyRegion  = obsv.NewKey("region")

	kindSyms = func() (syms [pcie.MsgD + 1]obsv.Sym) {
		for k := range syms {
			syms[k] = obsv.Intern(pcie.Kind(k).String())
		}
		return
	}()
	actionSyms = func() (syms [actionToL2 + 1]obsv.Sym) {
		for a := range syms {
			syms[a] = obsv.Intern(actionLabel(Action(a)))
		}
		return
	}()
	symStreamH2D  = obsv.Intern(StreamH2D)
	symStreamMMIO = obsv.Intern(StreamMMIO)
)

// kindSym is the symbol of a packet kind's name. Kinds outside the TLP
// vocabulary (a malformed header: at most 256 values) resolve on use.
func kindSym(k pcie.Kind) obsv.Sym {
	if int(k) < len(kindSyms) {
		return kindSyms[k]
	}
	return obsv.Intern(k.String())
}

// actionSym is the symbol of an action's metric-label token.
func actionSym(a Action) obsv.Sym {
	if int(a) < len(actionSyms) {
		return actionSyms[a]
	}
	return obsv.Intern(actionLabel(a))
}

// streamSym is the symbol of a tag-queue stream name.
func streamSym(stream string) obsv.Sym {
	switch stream {
	case StreamH2D:
		return symStreamH2D
	case StreamMMIO:
		return symStreamMMIO
	}
	return obsv.Intern(stream)
}
