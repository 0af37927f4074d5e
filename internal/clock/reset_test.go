package clock

import (
	"errors"
	"testing"

	"m2hew/internal/rng"
)

// TestTimelineResetMatchesNew checks the pooling seam: a timeline reset
// over old backing storage must be indistinguishable from a freshly
// constructed one — same boundaries, same frame intervals — even when the
// previous life used different parameters and had grown far out.
func TestTimelineResetMatchesNew(t *testing.T) {
	w1, err := NewRandomWalk(0.1, 0.03, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewTimeline(0.5, 3, 3, w1)
	if err != nil {
		t.Fatal(err)
	}
	// Previous life: different params, deeply extended.
	old, err := NewTimeline(7, 2, 2, Constant(0.05))
	if err != nil {
		t.Fatal(err)
	}
	old.SlotStart(500)
	w2, err := NewRandomWalk(0.1, 0.03, rng.New(5)) // same stream as w1
	if err != nil {
		t.Fatal(err)
	}
	if err := old.Reset(0.5, 3, 3, w2); err != nil {
		t.Fatal(err)
	}
	if old.Start() != fresh.Start() || old.FrameLen() != fresh.FrameLen() || old.SlotsPerFrame() != fresh.SlotsPerFrame() {
		t.Fatal("Reset did not adopt the new parameters")
	}
	for i := 0; i <= 300; i++ {
		if got, want := old.SlotStart(i), fresh.SlotStart(i); got != want {
			t.Fatalf("SlotStart(%d) = %v after Reset, fresh %v", i, got, want)
		}
	}
	for f := 0; f <= 90; f++ {
		gs, ge := old.FrameInterval(f)
		ws, we := fresh.FrameInterval(f)
		if gs != ws || ge != we {
			t.Fatalf("FrameInterval(%d) = (%v,%v) after Reset, fresh (%v,%v)", f, gs, ge, ws, we)
		}
	}
}

func TestTimelineResetValidates(t *testing.T) {
	tl, err := NewTimeline(0, 3, 3, Ideal)
	if err != nil {
		t.Fatal(err)
	}
	if err := tl.Reset(0, -1, 3, Ideal); err == nil {
		t.Fatal("negative frame length accepted by Reset")
	}
	if err := tl.Reset(0, 3, 0, Ideal); err == nil {
		t.Fatal("zero slots per frame accepted by Reset")
	}
	if err := tl.Reset(0, 3, 3, Constant(1.5)); err == nil {
		t.Fatal("out-of-range drift bound accepted by Reset")
	}
	if err := tl.Reset(0, 3, 3, nil); err != nil {
		t.Fatalf("nil drift must default to Ideal as in NewTimeline: %v", err)
	}
}

// TestTimelineReserve checks that capacity pre-sizing changes no values and
// makes in-budget queries allocation-free.
func TestTimelineReserve(t *testing.T) {
	w, err := NewRandomWalk(0.1, 0.03, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := NewTimeline(1, 3, 3, w)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := NewRandomWalk(0.1, 0.03, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	reserved, err := NewTimeline(1, 3, 3, w2)
	if err != nil {
		t.Fatal(err)
	}
	reserved.Reserve(200)
	reserved.SlotStart(50) // partially extend before comparing
	for i := 0; i <= 250; i++ {
		if got, want := reserved.SlotStart(i), plain.SlotStart(i); got != want {
			t.Fatalf("SlotStart(%d) = %v with Reserve, plain %v", i, got, want)
		}
	}
	w2.ReserveSlots(400)
	if allocs := testing.AllocsPerRun(50, func() {
		reserved.Reserve(200)      // no-op: capacity already there
		reserved.SlotInterval(190) // in budget
	}); allocs != 0 {
		t.Fatalf("in-budget timeline queries allocate %.0f/op, want 0", allocs)
	}
}

// TestRandomWalkReserveSlots checks that pre-sizing the rate cache
// preserves already-materialized values and the rest of the stream.
func TestRandomWalkReserveSlots(t *testing.T) {
	plain, err := NewRandomWalk(0.1, 0.03, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	reserved, err := NewRandomWalk(0.1, 0.03, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	r10 := reserved.Rate(10) // materialize a prefix first
	reserved.ReserveSlots(300)
	if reserved.Rate(10) != r10 {
		t.Fatal("ReserveSlots changed a materialized rate")
	}
	for k := 0; k <= 350; k++ {
		if got, want := reserved.Rate(k), plain.Rate(k); got != want {
			t.Fatalf("Rate(%d) = %v with ReserveSlots, plain %v", k, got, want)
		}
	}
	reserved.ReserveSlots(100) // shrinking request is a no-op
	if reserved.Rate(350) != plain.Rate(350) {
		t.Fatal("second ReserveSlots perturbed the stream")
	}
}

// TestRandomWalkRateBufPool checks the adopt/release seam the async scratch
// uses to recycle rate-memo backing arrays across trials: adoption moves
// capacity but never values, a too-small buffer is ignored, and release
// detaches the array for the next walk.
func TestRandomWalkRateBufPool(t *testing.T) {
	plain, err := NewRandomWalk(0.1, 0.03, rng.New(13))
	if err != nil {
		t.Fatal(err)
	}
	pooled, err := NewRandomWalk(0.1, 0.03, rng.New(13))
	if err != nil {
		t.Fatal(err)
	}
	r5 := pooled.Rate(5) // materialize a prefix before adopting
	pooled.AdoptRateBuf(make([]float64, 0, 400))
	if pooled.Rate(5) != r5 {
		t.Fatal("AdoptRateBuf changed a materialized rate")
	}
	if cap(pooled.rates) < 400 {
		t.Fatalf("adopted capacity %d, want >= 400", cap(pooled.rates))
	}
	for k := 0; k <= 350; k++ {
		if got, want := pooled.Rate(k), plain.Rate(k); got != want {
			t.Fatalf("Rate(%d) = %v after AdoptRateBuf, plain %v", k, got, want)
		}
	}
	pooled.AdoptRateBuf(make([]float64, 0, 10)) // smaller than current: ignored
	if cap(pooled.rates) < 400 {
		t.Fatal("smaller AdoptRateBuf shrank the memo")
	}
	buf := pooled.ReleaseRateBuf()
	if cap(buf) < 400 {
		t.Fatalf("released capacity %d, want >= 400", cap(buf))
	}
	if again := pooled.ReleaseRateBuf(); cap(again) != 0 {
		t.Fatal("second ReleaseRateBuf returned a live buffer")
	}
	if err := pooled.AdoptRateBuf(make([]float64, 0, 800)); !errors.Is(err, ErrDriftConsumed) {
		t.Fatalf("AdoptRateBuf on a released walk = %v, want ErrDriftConsumed", err)
	}
	// A fresh walk adopting the released buffer produces its own stream
	// allocation-free for in-capacity queries.
	next, err := NewRandomWalk(0.1, 0.03, rng.New(17))
	if err != nil {
		t.Fatal(err)
	}
	next.AdoptRateBuf(buf)
	if allocs := testing.AllocsPerRun(20, func() { next.Rate(399) }); allocs != 0 {
		t.Fatalf("in-capacity Rate after adoption allocates %.0f/op, want 0", allocs)
	}
	want, err := NewRandomWalk(0.1, 0.03, rng.New(17))
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k <= 399; k++ {
		if next.Rate(k) != want.Rate(k) {
			t.Fatalf("Rate(%d) differs for walk seeded from recycled buffer", k)
		}
	}
}
