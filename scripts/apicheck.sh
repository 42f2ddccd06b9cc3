#!/usr/bin/env bash
# scripts/apicheck.sh — the front-door gate. examples/ must compile
# against the public now package alone: every example is a promise that
# the facade is sufficient, so an internal import there means now.go is
# missing an export. cmd/ may additionally reach the repo-internal
# tooling packages that deliberately have no facade (experiment drivers,
# trace generators, observability export, stats helpers, the control
# plane client/types nowctl talks, and sim for its time units) — but
# nothing else: if a command needs a subsystem, the subsystem belongs
# in now.go.
#
# Matching includes the leading quote so that test data quoting go test
# output (which names internal packages) does not trip the gate.
#
# Fleets are built only by am.NewFleet, whose order fixes process ids:
# non-test code in internal/ and cmd/ may not call am.NewEndpoint or
# node.New outside internal/proto/am (the facade, now_net.go, may).
set -euo pipefail
cd "$(dirname "$0")/.."

pattern='"github.com/nowproject/now/internal/'
allow='/internal/(experiments|trace|obs|stats|controlplane|sim|federation)"'
fail=0

if bad=$(grep -rn --include='*.go' "$pattern" examples); then
	echo "apicheck: examples/ must import only the public now API:" >&2
	echo "$bad" >&2
	fail=1
fi

if bad=$(grep -rn --include='*.go' "$pattern" cmd | grep -Ev "$allow"); then
	echo "apicheck: cmd/ may import internal/{experiments,trace,obs,stats} only:" >&2
	echo "$bad" >&2
	fail=1
fi

if bad=$(grep -rnE --include='*.go' --exclude='*_test.go' '(^|[^[:alnum:]_])(am\.NewEndpoint|node\.New)\(' internal cmd |
	grep -v '^internal/proto/am/'); then
	echo "apicheck: build fleets with am.NewFleet, not am.NewEndpoint/node.New:" >&2
	echo "$bad" >&2
	fail=1
fi

if [ "$fail" -ne 0 ]; then
	exit 1
fi
echo "apicheck: examples/ and cmd/ respect the public API surface; fleets build through am.NewFleet"
