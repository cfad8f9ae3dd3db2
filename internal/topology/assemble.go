package topology

import (
	"fmt"

	"toporouting/internal/geom"
)

// AssembleTables constructs a Topology from externally computed per-sector
// selection and admission tables — the output surface of builders that do
// not run inside this package, such as the asynchronous message-passing
// engine (internal/dist). The final topology N is derived as the
// undirected closure of admitIn, exactly as the centralized builder
// materializes it (YaoGraph derives N₁ from nearestOut on call); no
// validation of the tables' semantics is performed beyond shape checks, so
// the result is only as correct as the protocol that produced the tables.
func AssembleTables(pts []geom.Point, cfg Config, nearestOut, admitIn [][]int32) *Topology {
	cfg = cfg.withDefaults()
	if cfg.Range <= 0 {
		panic(fmt.Sprintf("topology: non-positive range %v", cfg.Range))
	}
	sectors := geom.NewSectors(cfg.Theta)
	n := len(pts)
	k := sectors.Count()
	if len(nearestOut) != n || len(admitIn) != n {
		panic(fmt.Sprintf("topology: tables for %d/%d nodes, want %d", len(nearestOut), len(admitIn), n))
	}
	for u := 0; u < n; u++ {
		if len(nearestOut[u]) != k || len(admitIn[u]) != k {
			panic(fmt.Sprintf("topology: node %d has %d/%d sectors, want %d", u, len(nearestOut[u]), len(admitIn[u]), k))
		}
	}
	return &Topology{
		Pts:        pts,
		Cfg:        cfg,
		Sectors:    sectors,
		NearestOut: nearestOut,
		AdmitIn:    admitIn,
		N:          closure(admitIn, k, nil),
	}
}
