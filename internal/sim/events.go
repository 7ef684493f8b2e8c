package sim

import "fmt"

// EventKind tags entries of a recorded execution trace.
type EventKind int

// Trace event kinds.
const (
	EvFailure         EventKind = iota // a failure struck (Level = class)
	EvAbsorbedFailure                  // failure inside the correlation window of a previous one
	EvCheckpointDone                   // a checkpoint completed (Level = its level)
	EvCheckpointAbort                  // a checkpoint was killed by a failure
	EvRecoveryDone                     // allocation + recovery finished (Level = restore level, -1 scratch)
	EvCompletion                       // the run finished
)

func (k EventKind) String() string {
	switch k {
	case EvFailure:
		return "failure"
	case EvAbsorbedFailure:
		return "absorbed-failure"
	case EvCheckpointDone:
		return "checkpoint"
	case EvCheckpointAbort:
		return "checkpoint-abort"
	case EvRecoveryDone:
		return "recovery"
	case EvCompletion:
		return "completion"
	default:
		return fmt.Sprintf("event(%d)", int(k))
	}
}

// TraceEvent is one entry of a recorded execution trace.
type TraceEvent struct {
	Time     float64 // wall-clock seconds
	Kind     EventKind
	Level    int     // 0-based level/class; -1 where not applicable
	Progress float64 // productive progress at the event, seconds
}

func (e TraceEvent) String() string {
	return fmt.Sprintf("%.1fs %s L%d p=%.0f", e.Time, e.Kind, e.Level+1, e.Progress)
}
