package tensor

// TapeBlock exposes the tape walker's sub-chunk to the external tests, so
// they can pick stream lengths that straddle it.
const TapeBlock = tapeBlock
