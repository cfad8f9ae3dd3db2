//go:build race

package unitdisk

// raceEnabled reports a build under the race detector, which slows the
// spanning tree about sixfold and so voids wall-clock bounds.
const raceEnabled = true
