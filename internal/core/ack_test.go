package core

import (
	"slices"
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

// TestAcknowledgingHeardCache checks the cached heard-list, and what
// AppendHeard returns, against a fresh AppendNeighbors of the inner table
// after every Deliver of a random stream with repeat senders, over sparse
// and dense sender ranges. Once per stream it writes the inner table past
// the wrapper, which AppendHeard must notice before the next Deliver
// refreshes the cache.
func TestAcknowledgingHeardCache(t *testing.T) {
	r := rng.New(19)
	for trial := 0; trial < 20; trial++ {
		inner, err := NewSyncUniform(channel.NewSet(0, 1), 4, r.Split())
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewAcknowledging(0, inner)
		if err != nil {
			t.Fatal(err)
		}
		senders := 2 + r.IntN(300)
		for i := 0; i < 400; i++ {
			from := topology.NodeID(1 + r.IntN(senders))
			if i == 200 {
				inner.Deliver(radio.Message{From: topology.NodeID(senders + 1), Avail: channel.NewSet(1)})
			} else {
				p.Deliver(radio.Message{From: from, Avail: channel.NewSet(0)})
			}
			table := inner.Neighbors().AppendNeighbors(nil)
			if i != 200 && !slices.Equal(p.heard, table) {
				t.Fatalf("trial %d delivery %d: cached %v, table %v", trial, i, p.heard, table)
			}
			got := p.AppendHeard([]topology.NodeID{-7})
			if want := append([]topology.NodeID{-7}, table...); !slices.Equal(got, want) {
				t.Fatalf("trial %d delivery %d: AppendHeard %v, table %v", trial, i, got, want)
			}
		}
	}
}
