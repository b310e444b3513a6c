// Package types defines the fundamental identifiers and addresses shared by
// every SDVM manager: site ids, program ids, microthread/microframe ids,
// global memory addresses, platform ids, and manager ids.
//
// The SDVM (Haase/Eschmann/Waldschmidt, IPPS 2005) distinguishes a site's
// logical id — assigned by the cluster manager at sign-on and used by every
// manager above the network layer — from its physical (network) address,
// known only to the network manager. Global memory addresses embed the
// logical id of the site that allocated the object (its "homesite"), which
// is what makes the attraction memory's homesite directory work: any site
// can route a request for an unknown object to its homesite by decoding the
// address alone.
package types

import (
	"fmt"
	"math"
)

// SiteID is the logical identifier of a site in the cluster. Logical ids
// are assigned during sign-on by one of the cluster manager's allocation
// strategies and are never reused for the lifetime of a cluster.
type SiteID uint32

// InvalidSite is the zero SiteID; no live site ever holds it.
const InvalidSite SiteID = 0

// Broadcast addresses a message to every site currently in the cluster
// list. It is only meaningful as a message destination.
const Broadcast SiteID = math.MaxUint32

func (s SiteID) String() string {
	switch s {
	case InvalidSite:
		return "site(invalid)"
	case Broadcast:
		return "site(broadcast)"
	default:
		return fmt.Sprintf("site(%d)", uint32(s))
	}
}

// Valid reports whether s identifies a single live site.
func (s SiteID) Valid() bool { return s != InvalidSite && s != Broadcast }

// ProgramID identifies one application running on the cluster. The SDVM is
// a multi-program machine: several applications may run simultaneously and
// the program manager keeps them apart by this id. The id embeds the site
// that started the program so that ids created on different sites never
// collide.
type ProgramID uint64

// MakeProgramID combines the starting site and a site-local counter value
// into a cluster-unique program id.
func MakeProgramID(start SiteID, seq uint32) ProgramID {
	return ProgramID(uint64(start)<<32 | uint64(seq))
}

// StartSite returns the site on which the program was started (its implicit
// code-distribution site, paper §4).
func (p ProgramID) StartSite() SiteID { return SiteID(p >> 32) }

// Seq returns the start site's local sequence number for this program.
func (p ProgramID) Seq() uint32 { return uint32(p) }

func (p ProgramID) String() string {
	return fmt.Sprintf("prog(%d@%d)", p.Seq(), uint32(p.StartSite()))
}

// ThreadID identifies a microthread within a program. Microthreads are the
// code fragments an application is partitioned into; the id is stable
// across sites and platforms (a site that lacks the platform-specific
// binary requests it by this id, paper §3.4).
type ThreadID struct {
	Program ProgramID
	Index   uint32
}

func (t ThreadID) String() string {
	return fmt.Sprintf("thread(%d/%s)", t.Index, t.Program)
}

// GlobalAddr is an address in the SDVM's global memory. The high part is
// the homesite — the site that allocated the object — and the low part a
// homesite-local counter. Microframes, application memory objects, and file
// handles all live in this address space.
type GlobalAddr struct {
	Home  SiteID
	Local uint64
}

// NilAddr is the zero GlobalAddr, used to mean "no address".
var NilAddr = GlobalAddr{}

// IsNil reports whether a is the nil address.
func (a GlobalAddr) IsNil() bool { return a == NilAddr }

func (a GlobalAddr) String() string {
	return fmt.Sprintf("@%d.%d", uint32(a.Home), a.Local)
}

// FrameID identifies a microframe. Microframes are global memory objects,
// so their identity is a global address.
type FrameID = GlobalAddr

// PlatformID identifies a (simulated) hardware/OS platform. A microthread
// binary artifact is only executable on sites with the same PlatformID;
// other sites must fetch a matching artifact or compile from source
// (paper §3.4). The real prototype used values like "linux-x86"; this
// reproduction assigns synthetic ids per site.
type PlatformID uint16

// PlatformAny marks an artifact (e.g. portable source code) usable on every
// platform.
const PlatformAny PlatformID = 0

func (p PlatformID) String() string {
	if p == PlatformAny {
		return "platform(any)"
	}
	return fmt.Sprintf("platform(%d)", uint16(p))
}

// ManagerID names one of the SDVM daemon's managers. Every SDMessage is
// addressed manager-to-manager (paper §4, message manager): the header
// carries source and destination manager ids and the message manager
// dispatches on them.
type ManagerID uint8

// Manager ids, one per manager in the paper's Figure 3.
const (
	MgrInvalid    ManagerID = iota
	MgrProcessing           // processing manager (execution layer)
	MgrScheduling           // scheduling manager (execution layer)
	MgrCode                 // code manager (execution layer)
	MgrMemory               // attraction memory (execution layer)
	MgrIO                   // input/output manager (execution layer)
	MgrCluster              // cluster manager (maintenance layer)
	MgrProgram              // program manager (maintenance layer)
	MgrSite                 // site manager (maintenance layer)
	MgrMessage              // message manager (communication layer)
	MgrSecurity             // security manager (communication layer)
	MgrNetwork              // network manager (communication layer)
	MgrCheckpoint           // crash management / checkpointing ([4])
	MgrAccounting           // accounting (paper §2.2/§6 commercial use)
	MgrGossip               // epidemic membership & load dissemination

	managerCount
)

// ManagerCount is the number of defined manager ids (including MgrInvalid).
const ManagerCount = int(managerCount)

var managerNames = [...]string{
	MgrInvalid:    "invalid",
	MgrProcessing: "processing",
	MgrScheduling: "scheduling",
	MgrCode:       "code",
	MgrMemory:     "memory",
	MgrIO:         "io",
	MgrCluster:    "cluster",
	MgrProgram:    "program",
	MgrSite:       "site",
	MgrMessage:    "message",
	MgrSecurity:   "security",
	MgrNetwork:    "network",
	MgrCheckpoint: "checkpoint",
	MgrAccounting: "accounting",
	MgrGossip:     "gossip",
}

func (m ManagerID) String() string {
	if int(m) < len(managerNames) {
		return managerNames[m]
	}
	return fmt.Sprintf("manager(%d)", uint8(m))
}

// Valid reports whether m names a defined manager.
func (m ManagerID) Valid() bool { return m > MgrInvalid && m < managerCount }

// Priority orders microframes for scheduling. Larger is more urgent. The
// CDAG analysis ([7]) assigns PriorityCritical to frames on the critical
// path; the programmer may attach explicit priorities as scheduling hints
// (paper §3.3).
type Priority int16

// Standard priority levels.
const (
	PriorityLow      Priority = -100
	PriorityNormal   Priority = 0
	PriorityHigh     Priority = 100
	PriorityCritical Priority = 1000
)

// SiteInfo is the cluster manager's knowledge about one site: the cluster
// list (paper §4) holds one entry per participating site and is partially
// replicated everywhere.
type SiteInfo struct {
	ID       SiteID
	PhysAddr string     // network-manager address ("host:port" or inproc name)
	Platform PlatformID // simulated platform type
	Speed    float64    // relative processing speed (1.0 = reference)

	// Statistics, refreshed by gossiped rows; used to pick help-request
	// targets (ask a site that is probably not idle itself).
	Load       float64 // recent work ratio in [0,1]
	QueueLen   int32   // executable+ready microframes queued
	Programs   int32   // programs the site works on
	IsCodeDist bool    // acts as a code distribution site
	Reliable   bool    // member of the reliable core (paper §2.2): a
	// trustworthy machine that stores checkpoints for the unsafe sites
	// around it
}
