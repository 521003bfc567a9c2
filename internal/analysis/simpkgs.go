package analysis

import "regexp"

// The determinism contract (DESIGN.md §7-9) applies to the packages that run
// inside a netsim.Sim event loop: everything a simulated experiment
// executes must be a pure function of its derived seed. The analyzers match
// packages by path segment so the same rules apply to the repository's
// import paths (repro/internal/netsim) and to analysistest fixtures
// (plain "netsim").

// simPkgRe matches the simulation packages named in ISSUE 3: the simulator
// core, the channel models, every controller, the fault-injection layer
// (ISSUE 4), the observability layer (ISSUE 5 — events carry virtual time
// and metric snapshots feed rendered output, so it is bound by the same
// contract), the host window every Source drives, and the experiment
// harnesses (including their subpackages, e.g. experiments/runner).
var simPkgRe = regexp.MustCompile(`(^|/)(netsim|cellular|verus|tcp|sprout|experiments|predictor|faults|obs|snap|host)(/|$)`)

// transportPkgRe matches the real-UDP transport, which is additionally
// subject to nowalltime: its wall-clock access must sit behind the Clock
// interface so simulated transports can run on virtual time.
var transportPkgRe = regexp.MustCompile(`(^|/)transport(/|$)`)

// runnerPkgRe matches the experiment runner subpackage, the one sanctioned
// home of math/rand within the harness layer (it owns seed derivation).
var runnerPkgRe = regexp.MustCompile(`(^|/)experiments/runner(/|$)`)

// harnessPkgRe matches the experiment harness layer itself.
var harnessPkgRe = regexp.MustCompile(`(^|/)experiments(/|$)`)

// netsimPkgRe matches the simulator core package, whose Packet type is
// pooled (DESIGN.md §13): poolrelease scopes its literal check to types
// defined there.
var netsimPkgRe = regexp.MustCompile(`(^|/)netsim(/|$)`)

// IsSimPackage reports whether the import path is under the simulation
// determinism contract.
func IsSimPackage(path string) bool { return simPkgRe.MatchString(path) }

// IsNetsimPackage reports whether the import path is the simulator core,
// the home of the pooled Packet type.
func IsNetsimPackage(path string) bool { return netsimPkgRe.MatchString(path) }

// UsesVirtualTime reports whether the package must route all clock access
// through virtual time (simulation packages plus the transport layer).
func UsesVirtualTime(path string) bool {
	return IsSimPackage(path) || transportPkgRe.MatchString(path)
}

// IsHarnessPackage reports whether the package is an experiment harness
// that must obtain RNGs via the runner's seed-derivation path rather than
// importing math/rand directly.
func IsHarnessPackage(path string) bool {
	return harnessPkgRe.MatchString(path) && !runnerPkgRe.MatchString(path)
}

// faultsPkgRe matches the fault-injection layer (ISSUE 4), both as the
// repository path (repro/internal/faults) and as a fixture path (faults).
var faultsPkgRe = regexp.MustCompile(`(^|/)faults(/|$)`)

// benchCmdRe matches the verus-bench CLI, which exposes the -faults flag.
var benchCmdRe = regexp.MustCompile(`(^|/)cmd/verus-bench(/|$)`)

// IsFaultsPackage reports whether the import path is the fault-injection
// layer itself (or one of its subpackages).
func IsFaultsPackage(path string) bool { return faultsPkgRe.MatchString(path) }

// MayInjectFaults reports whether a package is sanctioned to import the
// fault-injection layer: the layer itself, the experiment harnesses that
// wire plans into simulations, and the verus-bench CLI. Everything else —
// the simulator core, the controllers, the transport — must stay
// fault-free in production code; tests are outside the analyzed set and
// may inject freely.
func MayInjectFaults(path string) bool {
	return faultsPkgRe.MatchString(path) ||
		harnessPkgRe.MatchString(path) ||
		benchCmdRe.MatchString(path)
}
