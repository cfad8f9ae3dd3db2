//go:build !race

package unitdisk

const raceEnabled = false
