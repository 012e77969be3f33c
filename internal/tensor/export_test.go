package tensor

// TapeBlock exposes the tape walker's sub-chunk to the external tests, so
// they can pick stream lengths that straddle it.
const TapeBlock = tapeBlock

// FanOuts exposes the count of fan-out decisions that split a loop, so the
// external tests can tell that a run reached the pooled path.
func FanOuts() int64 { return fanOuts.Load() }
