package dist

import (
	"math"
	"strings"
	"testing"

	"toporouting/internal/geom"
	"toporouting/internal/pointset"
	"toporouting/internal/telemetry"
	"toporouting/internal/topology"
	"toporouting/internal/unitdisk"
)

func testConfig(pts []geom.Point, seed int64) Config {
	return Config{
		Theta: math.Pi / 6,
		Range: unitdisk.CriticalRange(pts) * 1.3,
		Seed:  seed,
	}
}

func TestLossFreeMatchesCentralizedSmall(t *testing.T) {
	pts := pointset.Generate(pointset.KindUniform, 80, 7)
	cfg := testConfig(pts, 7)
	out, err := Build(pts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cert := out.Certify()
	if !cert.Quiescent || !cert.Complete {
		t.Fatalf("loss-free run not clean: %v", cert)
	}
	if !cert.Identical {
		t.Fatalf("loss-free edge set differs from BuildTheta: %v", cert)
	}
	// The per-sector tables must match exactly, not just the edge set.
	ref := topology.BuildTheta(pts, topology.Config{Theta: cfg.Theta, Range: cfg.Range})
	for u := range pts {
		for s := range ref.NearestOut[u] {
			if ref.NearestOut[u][s] != out.Top.NearestOut[u][s] {
				t.Fatalf("NearestOut[%d][%d] = %d, want %d", u, s, out.Top.NearestOut[u][s], ref.NearestOut[u][s])
			}
			if ref.AdmitIn[u][s] != out.Top.AdmitIn[u][s] {
				t.Fatalf("AdmitIn[%d][%d] = %d, want %d", u, s, out.Top.AdmitIn[u][s], ref.AdmitIn[u][s])
			}
		}
	}
}

func TestLossFreeIsQuiet(t *testing.T) {
	// Without faults the protocol must settle in O(1) virtual time: a
	// hello round, a select round, a grant round, and ack round-trips.
	pts := pointset.Generate(pointset.KindUniform, 60, 3)
	out, err := Build(pts, testConfig(pts, 3))
	if err != nil {
		t.Fatal(err)
	}
	if out.Stats.VTime > 64 {
		t.Errorf("loss-free convergence took %d ticks", out.Stats.VTime)
	}
	if out.Stats.Retries != 0 {
		t.Errorf("loss-free run retried %d transfers", out.Stats.Retries)
	}
	if out.Stats.Dropped != 0 || out.Stats.MailboxDropped != 0 {
		t.Errorf("loss-free run dropped messages: %+v", out.Stats)
	}
}

func TestFaultPlanValidation(t *testing.T) {
	pts := pointset.Generate(pointset.KindUniform, 10, 1)
	cases := []Faults{
		{Drop: -0.1},
		{Drop: 1.0},
		{MaxDelay: -1},
		{Crashes: -2},
	}
	for i, f := range cases {
		cfg := testConfig(pts, 1)
		cfg.Faults = f
		if _, err := Build(pts, cfg); err == nil {
			t.Errorf("case %d: fault plan %+v accepted", i, f)
		}
	}
	cfg := testConfig(pts, 1)
	cfg.Faults = Faults{Crashes: 11}
	if _, err := Build(pts, cfg); err == nil {
		t.Error("more crashes than nodes accepted")
	}
}

func TestCrashRestartRecovers(t *testing.T) {
	pts := pointset.Generate(pointset.KindUniform, 60, 11)
	cfg := testConfig(pts, 11)
	cfg.Faults = Faults{Crashes: 8}
	out, err := Build(pts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if out.Stats.Crashes != 8 || out.Stats.Restarts != 8 {
		t.Fatalf("crash accounting: %+v", out.Stats)
	}
	cert := out.Certify()
	if !cert.Quiescent {
		t.Fatalf("crashy run not quiescent: %v", cert)
	}
	// Positions are static, so restarted nodes re-derive the same state:
	// the final topology must still be identical to the centralized one.
	if !cert.Identical {
		t.Fatalf("crash/restart (no loss) diverged: %v", cert)
	}
}

func TestMailboxBounded(t *testing.T) {
	pts := pointset.Generate(pointset.KindUniform, 120, 5)
	cfg := testConfig(pts, 5)
	cfg.MailboxCap = 2
	out, err := Build(pts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if out.Stats.MailboxHighWater > 2 {
		t.Fatalf("mailbox high water %d exceeds cap 2", out.Stats.MailboxHighWater)
	}
	if out.Stats.MailboxDropped == 0 {
		t.Error("a 2-slot mailbox on a 120-node build should overflow")
	}
	// A pathologically small mailbox loses unrepeated HELLO broadcasts for
	// good, so edge-identity is not promised — but the run must still
	// quiesce in bounded memory with every drop accounted for.
	cert := out.Certify()
	if !cert.Quiescent {
		t.Fatalf("overflowing run did not quiesce: %v", cert)
	}
	if cert.MaxDegree > cert.DegreeBound {
		t.Fatalf("degree bound violated under overflow: %v", cert)
	}

	// With drop-aware HELLO repeats and a realistic (if tight) mailbox the
	// reliability layer does repair the losses.
	cfg.MailboxCap = 64
	cfg.Faults = Faults{Drop: 0.05}
	out, err = Build(pts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c := out.Certify(); !c.Holds() {
		t.Fatalf("tight-mailbox lossy run did not converge: %v", c)
	}
}

func TestTelemetryRecorded(t *testing.T) {
	sink := &telemetry.MemorySink{}
	tel := telemetry.New(sink)
	pts := pointset.Generate(pointset.KindUniform, 50, 9)
	cfg := testConfig(pts, 9)
	cfg.Faults = Faults{Drop: 0.1}
	cfg.Telemetry = tel
	out, err := Build(pts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := tel.Counter("dist.msgs_sent").Value(); got != out.Stats.Sent {
		t.Errorf("dist.msgs_sent = %d, want %d", got, out.Stats.Sent)
	}
	if got := tel.Counter("dist.msgs_dropped").Value(); got != out.Stats.Dropped {
		t.Errorf("dist.msgs_dropped = %d, want %d", got, out.Stats.Dropped)
	}
	if tel.Histogram("dist.rounds").Snapshot().Count != 1 {
		t.Error("dist.rounds histogram not observed")
	}
	var found bool
	for _, ev := range sink.Events() {
		if ev.Layer == "dist" && ev.Kind == "build" {
			found = true
			if ev.Fields["sent"] != float64(out.Stats.Sent) {
				t.Errorf("trace sent = %v, want %d", ev.Fields["sent"], out.Stats.Sent)
			}
		}
	}
	if !found {
		t.Error("no dist build trace event emitted")
	}
}

func TestCertificateString(t *testing.T) {
	c := Certificate{Quiescent: true, Complete: true, Identical: true, Connected: true, MaxDegree: 7, DegreeBound: 24, Rounds: 12}
	s := c.String()
	for _, want := range []string{"quiescent=true", "edges=identical", "degree=7/24", "rounds=12"} {
		if !strings.Contains(s, want) {
			t.Errorf("certificate %q missing %q", s, want)
		}
	}
	if !c.Holds() {
		t.Error("clean certificate must hold")
	}
	c.MaxDegree = 25
	if c.Holds() {
		t.Error("degree violation must not hold")
	}
}

func TestKindStrings(t *testing.T) {
	names := map[Kind]string{
		KindHello:      "HELLO",
		KindHelloReply: "HELLO-REPLY",
		KindSelect:     "SELECT",
		KindGrant:      "GRANT",
		KindAck:        "ACK",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), want)
		}
	}
	if Kind(99).String() != "Kind(99)" {
		t.Errorf("unknown kind renders %q", Kind(99).String())
	}
}

func TestHelloRepeatsScaleWithDrop(t *testing.T) {
	if got := (Faults{}).helloRepeats(); got != 1 {
		t.Errorf("loss-free repeats = %d, want 1", got)
	}
	r1 := Faults{Drop: 0.1}.helloRepeats()
	r3 := Faults{Drop: 0.3}.helloRepeats()
	if r1 < 3 || r3 <= r1 || r3 > 16 {
		t.Errorf("repeats: p=0.1 → %d, p=0.3 → %d", r1, r3)
	}
}

func TestDuplicatePositionsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on duplicate positions")
		}
	}()
	pts := []geom.Point{geom.Pt(0.1, 0.1), geom.Pt(0.5, 0.5), geom.Pt(0.1, 0.1)}
	Build(pts, Config{Range: 1})
}
