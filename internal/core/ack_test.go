package core

import (
	"testing"

	"m2hew/internal/channel"
	"m2hew/internal/radio"
	"m2hew/internal/rng"
	"m2hew/internal/topology"
)

func TestAcknowledgingValidation(t *testing.T) {
	inner, err := NewSyncUniform(channel.NewSet(0), 2, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewAcknowledging(0, nil); err == nil {
		t.Error("nil inner accepted")
	}
	if _, err := NewAcknowledging(-1, inner); err == nil {
		t.Error("negative id accepted")
	}
}

func TestAcknowledgingTracksConfirmations(t *testing.T) {
	inner, err := NewSyncUniform(channel.NewSet(0, 1), 2, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewAcknowledging(7, inner)
	if err != nil {
		t.Fatal(err)
	}
	// A message without a heard-list discovers the sender but confirms
	// nothing.
	p.Deliver(radio.Message{From: 3, Avail: channel.NewSet(0)})
	if !p.Neighbors().Has(3) {
		t.Fatal("inner delivery lost")
	}
	if p.HasConfirmed(3) {
		t.Fatal("confirmation without acknowledgment")
	}
	// A heard-list not containing us confirms nothing.
	p.Deliver(radio.Message{
		From: 3, Avail: channel.NewSet(0),
		Heard: []topology.NodeID{5, 9},
	})
	if p.HasConfirmed(3) {
		t.Fatal("confirmation from a foreign heard-list")
	}
	// A heard-list containing our ID confirms the out-link to the sender.
	p.Deliver(radio.Message{
		From: 3, Avail: channel.NewSet(0),
		Heard: []topology.NodeID{5, 7},
	})
	if !p.HasConfirmed(3) {
		t.Fatal("acknowledgment missed")
	}
	got := p.Confirmed()
	if len(got) != 1 || got[0] != 3 {
		t.Fatalf("Confirmed = %v, want [3]", got)
	}
	if p.HasConfirmed(5) {
		t.Fatal("unrelated node confirmed")
	}
}

func TestAcknowledgingHeardMirrorsTable(t *testing.T) {
	inner, err := NewSyncStaged(channel.NewSet(0), 2, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewAcknowledging(1, inner)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.AppendHeard(nil)) != 0 {
		t.Fatal("fresh wrapper reports heard nodes")
	}
	p.Deliver(radio.Message{From: 4, Avail: channel.NewSet(0)})
	p.Deliver(radio.Message{From: 2, Avail: channel.NewSet(0)})
	heard := p.AppendHeard([]topology.NodeID{9})
	if len(heard) != 3 || heard[0] != 9 || heard[1] != 2 || heard[2] != 4 {
		t.Fatalf("AppendHeard([9]) = %v, want [9 2 4]", heard)
	}
	// Step passes through to the inner schedule.
	a := p.Step(0)
	if err := a.Validate(channel.NewSet(0)); err != nil {
		t.Fatal(err)
	}
}
