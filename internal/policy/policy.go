// Package policy implements the paper's second partitioning technique:
// separating the *policy* component of a resource-management algorithm from
// its *mechanism* component with protection rings.
//
// The mechanism — the ability to move a page between memory levels and to
// read per-frame usage bits — executes in ring 0 and is reached only through
// gates. The replacement policy — the algorithm that decides WHICH page to
// move — executes in the less privileged policy ring. The gates never expose
// page contents or page identity, so, exactly as the paper argues, a
// malicious or buggy policy "could never cause unauthorized use or
// modification of the information stored in the pages. It could only cause
// denial of use."
//
// The separation here is enforced by the simulated hardware, not by
// convention: policy code runs through a machine.Processor in PolicyRing
// over a descriptor segment that maps only the policy's own code and the
// mechanism's gate segment.
package policy

import (
	"errors"
	"fmt"

	"repro/internal/machine"
	"repro/internal/mem"
)

// Gate entry indices of the mechanism's gate segment.
const (
	// EntryFrameCount() -> [nframes]
	EntryFrameCount = iota
	// EntryUsage(frame) -> [packed usage bits]
	EntryUsage
	// EntryResetUsage(frame) -> []
	EntryResetUsage
	// EntryMoveToBulk(frame) -> [latency]
	EntryMoveToBulk
	numEntries
)

// Usage bit layout returned by EntryUsage.
const (
	UsageFree uint64 = 1 << iota
	UsageUsed
	UsageModified
	UsageWired
)

// Mechanism is the ring-0 half: the minimal set of operations a
// replacement policy needs, exposed as gates, with every argument validated
// and every refusal counted.
type Mechanism struct {
	store *mem.Store
	// DeniedWired counts refused evictions of wired frames.
	DeniedWired int64
	// DeniedInvalid counts refused operations on invalid frame numbers.
	DeniedInvalid int64
	// Moves counts successful evictions performed on policy request.
	Moves int64
}

// NewMechanism returns the mechanism over store.
func NewMechanism(store *mem.Store) *Mechanism { return &Mechanism{store: store} }

// Procedure compiles the mechanism into a gate procedure segment. Install
// it with brackets {0,0,PolicyRing} and Gates=NumGates so only gate calls
// from the policy ring can reach it.
func (m *Mechanism) Procedure() *machine.Procedure {
	return &machine.Procedure{
		Name: "page_mechanism_gates",
		Entries: []machine.EntryFunc{
			EntryFrameCount: func(_ *machine.ExecContext, args []uint64) ([]uint64, error) {
				if len(args) != 0 {
					return nil, errors.New("pgm_$frame_count: no arguments expected")
				}
				return []uint64{uint64(m.store.Config().CoreFrames)}, nil
			},
			EntryUsage: func(_ *machine.ExecContext, args []uint64) ([]uint64, error) {
				f, err := m.frameArg("pgm_$usage", args)
				if err != nil {
					return nil, err
				}
				info, err := m.store.FrameInfo(f)
				if err != nil {
					m.DeniedInvalid++
					return nil, err
				}
				var bits uint64
				if info.Free {
					bits |= UsageFree
				}
				if info.Used {
					bits |= UsageUsed
				}
				if info.Modified {
					bits |= UsageModified
				}
				if info.Wired {
					bits |= UsageWired
				}
				// Note: the page identity (info.PID) is deliberately NOT
				// returned — the policy cannot learn which segment a frame
				// belongs to.
				return []uint64{bits}, nil
			},
			EntryResetUsage: func(_ *machine.ExecContext, args []uint64) ([]uint64, error) {
				f, err := m.frameArg("pgm_$reset_usage", args)
				if err != nil {
					return nil, err
				}
				if err := m.store.ResetUsage(f); err != nil {
					m.DeniedInvalid++
					return nil, err
				}
				return nil, nil
			},
			EntryMoveToBulk: func(_ *machine.ExecContext, args []uint64) ([]uint64, error) {
				f, err := m.frameArg("pgm_$move_to_bulk", args)
				if err != nil {
					return nil, err
				}
				info, err := m.store.FrameInfo(f)
				if err != nil {
					m.DeniedInvalid++
					return nil, err
				}
				if info.Wired {
					m.DeniedWired++
					return nil, fmt.Errorf("pgm_$move_to_bulk: frame %d is wired", f)
				}
				if info.Free {
					m.DeniedInvalid++
					return nil, fmt.Errorf("pgm_$move_to_bulk: frame %d is free", f)
				}
				_, lat, err := m.store.EvictToBulk(f)
				if err != nil {
					return nil, err
				}
				m.Moves++
				return []uint64{uint64(lat)}, nil
			},
		},
	}
}

// NumGates is the number of gate entries the mechanism exposes.
const NumGates = numEntries

func (m *Mechanism) frameArg(gateName string, args []uint64) (mem.FrameID, error) {
	if len(args) != 1 {
		m.DeniedInvalid++
		return 0, fmt.Errorf("%s: want 1 argument, got %d", gateName, len(args))
	}
	f := mem.FrameID(args[0])
	if int(f) < 0 || int(f) >= m.store.Config().CoreFrames {
		m.DeniedInvalid++
		return 0, fmt.Errorf("%s: frame %d out of range", gateName, f)
	}
	return f, nil
}

// Well-known segment numbers inside a policy domain.
const (
	// GateSeg is the mechanism gate segment.
	GateSeg machine.SegNo = 1
	// PolicySeg is the policy's own procedure segment.
	PolicySeg machine.SegNo = 2
	// KernelDataSeg maps a kernel data base (the frame table image) into
	// the domain with kernel-only brackets — present so that experiments
	// can demonstrate the ring check stopping a malicious policy, exactly
	// as the hardware would.
	KernelDataSeg machine.SegNo = 3
	// ScratchSeg is policy-private writable storage.
	ScratchSeg machine.SegNo = 4
)

// Domain is the protection environment a policy executes in: a processor
// whose descriptor segment maps only the mechanism gates, the policy code,
// a kernel data base it must NOT be able to touch, and private scratch.
type Domain struct {
	Proc *machine.Processor
	DS   *machine.DescriptorSegment
	mech *Mechanism
}

// NewDomain builds the policy's execution domain. policyProc entry 0 is the
// "choose victim" entry: called with no arguments, it must return the frame
// number to evict (or an error for "no choice").
func NewDomain(clock *machine.Clock, cost machine.CostModel, mech *Mechanism, policyProc *machine.Procedure) (*Domain, error) {
	ds := machine.NewDescriptorSegment(8)
	// The kernel calls the policy outward from ring 0; the policy executes
	// in the policy ring.
	proc := machine.NewProcessor(ds, clock, cost, machine.KernelRing)
	if err := ds.Set(GateSeg, machine.SDW{
		Proc:     mech.Procedure(),
		Mode:     machine.ModeExecute,
		Brackets: machine.Brackets{R1: machine.KernelRing, R2: machine.KernelRing, R3: machine.PolicyRing},
		Gates:    NumGates,
	}); err != nil {
		return nil, err
	}
	if err := ds.Set(PolicySeg, machine.SDW{
		Proc:     policyProc,
		Mode:     machine.ModeExecute,
		Brackets: machine.UserBrackets(machine.PolicyRing),
	}); err != nil {
		return nil, err
	}
	if err := ds.Set(KernelDataSeg, machine.SDW{
		Backing:  machine.NewCoreBacking(16),
		Mode:     machine.ModeRead | machine.ModeWrite,
		Brackets: machine.KernelBrackets(),
	}); err != nil {
		return nil, err
	}
	if err := ds.Set(ScratchSeg, machine.SDW{
		Backing:  machine.NewCoreBacking(64),
		Mode:     machine.ModeRead | machine.ModeWrite,
		Brackets: machine.UserBrackets(machine.PolicyRing),
	}); err != nil {
		return nil, err
	}
	return &Domain{Proc: proc, DS: ds, mech: mech}, nil
}

// Choose invokes the policy's choose-victim entry in the policy ring and
// validates the result against the mechanism's own rules. The returned
// error distinguishes a policy failure (denial of use) from a machine
// fault.
func (d *Domain) Choose() (mem.FrameID, error) {
	out, err := d.Proc.Call(PolicySeg, 0, nil)
	if err != nil {
		return 0, fmt.Errorf("policy: choose entry failed: %w", err)
	}
	if len(out) != 1 {
		return 0, fmt.Errorf("policy: choose entry returned %d values, want 1", len(out))
	}
	return mem.FrameID(out[0]), nil
}

// Mechanism returns the ring-0 mechanism of this domain.
func (d *Domain) Mechanism() *Mechanism { return d.mech }
