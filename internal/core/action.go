// Package core implements the paper's primary contribution: the PCIe
// Security Controller (PCIe-SC). The controller sits between the host
// PCIe bus and the xPU's private ("internal") bus, classifying every
// TLP with a two-stage Packet Filter (Figure 5) and processing
// authorized packets with Packet Handlers (Figure 4): AES-GCM
// de/encryption and tag matching for sensitive traffic, MAC-based
// integrity plus environment checks for control traffic, and
// transparent pass-through for general packets.
package core

import "fmt"

// Action is one of the four security actions of Table 1.
type Action uint8

const (
	// ActionDrop (A1) disallows the packet: it is discarded and, for
	// non-posted requests, answered with Unsupported Request.
	ActionDrop Action = iota + 1
	// ActionWriteReadProtect (A2) applies confidentiality and integrity:
	// payloads are de/encrypted with AES-GCM and tag-verified.
	ActionWriteReadProtect
	// ActionWriteProtect (A3) applies plain integrity checking plus
	// environment verification (e.g. page-table register values).
	ActionWriteProtect
	// ActionPassThrough (A4) transmits the packet unmodified.
	ActionPassThrough
	// actionToL2 is the internal L1 verdict that defers to the L2 table.
	actionToL2
)

func (a Action) String() string {
	switch a {
	case ActionDrop:
		return "A1:drop"
	case ActionWriteReadProtect:
		return "A2:write-read-protect"
	case ActionWriteProtect:
		return "A3:write-protect"
	case ActionPassThrough:
		return "A4:pass-through"
	case actionToL2:
		return "to-L2"
	}
	return fmt.Sprintf("Action(%d)", uint8(a))
}

// Permission names Table 1's access-permission categories; each maps
// 1:1 onto an Action.
type Permission uint8

const (
	// Prohibited packets are unauthorized (A1).
	Prohibited Permission = iota
	// WriteReadProtected packets carry sensitive payloads (A2).
	WriteReadProtected
	// WriteProtected packets affect the computing environment but carry
	// non-sensitive payloads (A3).
	WriteProtected
	// FullAccessible packets serve general functions (A4).
	FullAccessible
)

func (p Permission) String() string {
	switch p {
	case Prohibited:
		return "Prohibited"
	case WriteReadProtected:
		return "Write-Read Protected"
	case WriteProtected:
		return "Write Protected"
	case FullAccessible:
		return "Full Accessible"
	}
	return fmt.Sprintf("Permission(%d)", uint8(p))
}

// Action maps a permission category to its security action (Table 1).
func (p Permission) Action() Action {
	switch p {
	case Prohibited:
		return ActionDrop
	case WriteReadProtected:
		return ActionWriteReadProtect
	case WriteProtected:
		return ActionWriteProtect
	case FullAccessible:
		return ActionPassThrough
	}
	panic(fmt.Sprintf("core: unknown permission %d", uint8(p)))
}
