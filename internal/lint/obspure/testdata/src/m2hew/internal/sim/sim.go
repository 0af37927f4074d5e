// Package sim is a stub of the real m2hew/internal/sim for obspure
// fixtures: the analyzer matches Event and the Run entry points by package
// path and name.
package sim

import "m2hew/internal/radio"

// Event is the engine observability payload; Actions is a borrowed engine
// buffer.
type Event struct {
	Kind    int
	Slot    int
	Actions []radio.Action
}

// Observer receives engine events.
type Observer interface {
	OnEvent(Event)
}

// SyncConfig configures a stub run.
type SyncConfig struct {
	Observer Observer
}

// SyncResult reports a stub run.
type SyncResult struct{ Complete bool }

// RunSync is the synchronous engine entry point.
func RunSync(cfg SyncConfig) (*SyncResult, error) { return &SyncResult{}, nil }

// RunAsync is the asynchronous engine entry point.
func RunAsync(cfg SyncConfig) (*SyncResult, error) { return &SyncResult{}, nil }
