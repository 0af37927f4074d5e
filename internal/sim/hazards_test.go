package sim

// Regression tests for engine hot-path hazards fixed alongside the resolver
// rework: the Heard-list seam (engines must snapshot a reporter's list at
// delivery time into their own buffer, and lend it to the receiver for the
// Deliver call only) and the MinFullFrames frame-budget clamp (bound
// audits must not count frames past the simulated horizon).

import (
	"testing"

	"m2hew/internal/radio"
	"m2hew/internal/topology"
)

// mutatingHeardSync transmits every slot and reports a Heard list whose
// backing array it overwrites in place on every step.
type mutatingHeardSync struct {
	h []topology.NodeID
}

func (p *mutatingHeardSync) Step(s int) radio.Action {
	p.h[0] = topology.NodeID(s)
	return radio.Action{Mode: radio.Transmit, Channel: 0}
}
func (p *mutatingHeardSync) Deliver(radio.Message) {}
func (p *mutatingHeardSync) AppendHeard(dst []topology.NodeID) []topology.NodeID {
	return append(dst, p.h...)
}

// recordingSync listens on one channel and keeps a copy of every delivered
// heard-list (the slice itself is borrowed for the call), noting whether
// the engine handed it the reporter's own array.
type recordingSync struct {
	heard   [][]topology.NodeID
	aliased bool
	owner   []topology.NodeID
}

func (p *recordingSync) Step(int) radio.Action { return radio.Action{Mode: radio.Receive, Channel: 0} }
func (p *recordingSync) Deliver(msg radio.Message) {
	if len(msg.Heard) > 0 && len(p.owner) > 0 && &msg.Heard[0] == &p.owner[0] {
		p.aliased = true
	}
	p.heard = append(p.heard, append([]topology.NodeID(nil), msg.Heard...))
}

func TestSyncHeardSnapshotNotAliased(t *testing.T) {
	nw, err := topology.Clique(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := topology.AssignHomogeneous(nw, 1); err != nil {
		t.Fatal(err)
	}
	sender := &mutatingHeardSync{h: make([]topology.NodeID, 1)}
	receiver := &recordingSync{owner: sender.h}
	if _, err := RunSync(SyncConfig{
		Network:       nw,
		Protocols:     []SyncProtocol{sender, receiver},
		MaxSlots:      8,
		RunToMaxSlots: true,
	}); err != nil {
		t.Fatal(err)
	}
	if len(receiver.heard) != 8 {
		t.Fatalf("received %d messages, want 8", len(receiver.heard))
	}
	if receiver.aliased {
		t.Fatal("the engine lent the reporter's own array instead of its snapshot")
	}
	for slot, heard := range receiver.heard {
		if len(heard) != 1 || heard[0] != topology.NodeID(slot) {
			t.Fatalf("slot %d message Heard = %v, want [%d] — not the sender's list at delivery time",
				slot, heard, slot)
		}
	}
}

// heardAsync transmits every frame and reports a fixed-content Heard list
// through a slice the test mutates after the run.
type heardAsync struct {
	h []topology.NodeID
}

func (p *heardAsync) NextFrame(int) radio.Action {
	return radio.Action{Mode: radio.Transmit, Channel: 0}
}
func (p *heardAsync) Deliver(radio.Message) {}
func (p *heardAsync) AppendHeard(dst []topology.NodeID) []topology.NodeID {
	return append(dst, p.h...)
}

// recordingAsync listens every frame and keeps a copy of every delivered
// heard-list, noting whether the engine lent the reporter's own array.
type recordingAsync struct {
	heard   [][]topology.NodeID
	aliased bool
	owner   []topology.NodeID
}

func (p *recordingAsync) NextFrame(int) radio.Action {
	return radio.Action{Mode: radio.Receive, Channel: 0}
}
func (p *recordingAsync) Deliver(msg radio.Message) {
	if len(msg.Heard) > 0 && &msg.Heard[0] == &p.owner[0] {
		p.aliased = true
	}
	p.heard = append(p.heard, append([]topology.NodeID(nil), msg.Heard...))
}

func TestAsyncHeardSnapshotNotAliased(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(AsyncConfig) (*AsyncResult, error)
	}{
		{"RunAsync", RunAsync},
		{"RunAsyncOnline", RunAsyncOnline},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nw, err := topology.Clique(2)
			if err != nil {
				t.Fatal(err)
			}
			if err := topology.AssignHomogeneous(nw, 1); err != nil {
				t.Fatal(err)
			}
			sender := &heardAsync{h: []topology.NodeID{42}}
			receiver := &recordingAsync{owner: sender.h}
			if _, err := tc.run(AsyncConfig{
				Network:   nw,
				Nodes:     []AsyncNode{{Protocol: sender}, {Protocol: receiver}},
				FrameLen:  3,
				MaxFrames: 4,
			}); err != nil {
				t.Fatal(err)
			}
			if len(receiver.heard) == 0 {
				t.Fatal("no deliveries; the aliasing check tests nothing")
			}
			if receiver.aliased {
				t.Fatal("the engine lent the reporter's own array instead of its snapshot")
			}
			sender.h[0] = 99 // mutating the reporter's array post-run changes no copy
			for i, heard := range receiver.heard {
				if len(heard) != 1 || heard[0] != 42 {
					t.Fatalf("message %d Heard = %v, want [42]", i, heard)
				}
			}
		})
	}
}

// TestFullFramesStopAtFrameBudget pins the frame-budget clamp: the bound
// audit must count only frames the engine actually simulated, not walk the
// lazily extending timeline into frames no protocol ever decided.
func TestFullFramesStopAtFrameBudget(t *testing.T) {
	nw, err := topology.Clique(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := topology.AssignHomogeneous(nw, 1); err != nil {
		t.Fatal(err)
	}
	// Ideal clocks, unit slots, 11 frames each. Node 0 runs [0, 33); nodes
	// 1 and 2 start at T_s = 18 and run [18, 51). Node 0 reaches both in
	// [18, 21), hears 1 in [21, 24) and 2 in [24, 27), 1 reaches 2 in
	// [27, 30), and the last link, 2→1, is covered in slot [48, 49) of
	// their frame 10. Node 0 resolved only 5 frames after T_s (its frames
	// 6–10); an unclamped walk of its timeline to 49 would count 10.
	res, err := RunAsync(AsyncConfig{
		Network: nw,
		Nodes: []AsyncNode{
			{Protocol: scriptOf("qqqqqqTRRqq")},
			{Protocol: scriptOf("RTqTqqqqqqR"), Start: 18},
			{Protocol: scriptOf("RqTRqqqqqqT"), Start: 18},
		},
		FrameLen:  3,
		MaxFrames: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete || res.Ts != 18 || res.CompletionTime != 49 {
		t.Fatalf("(Complete, Ts, CompletionTime) = (%v, %v, %v), want (true, 18, 49)", res.Complete, res.Ts, res.CompletionTime)
	}
	if res.MinFullFrames != 5 {
		t.Errorf("MinFullFrames over a past-horizon interval = %d, want 5", res.MinFullFrames)
	}
}
