package main

import (
	"context"
	"strings"
	"testing"
)

// TestNegativeFlagsNameTheFlag pins that a negative int or duration flag
// exits 2 before the daemon starts, with an error naming the flag as the
// command line spells it.
func TestNegativeFlagsNameTheFlag(t *testing.T) {
	for _, arg := range []string{"-cache-entries=-1", "-workers=-2", "-accesses=-3",
		"-max-queue=-1", "-max-sync-waiters=-1", "-drain-timeout=-1s", "-request-timeout=-1ms", "-write-timeout=-1s"} {
		var stderr strings.Builder
		code := run(context.Background(), []string{"-addr=127.0.0.1:0", arg}, &stderr)
		name, _, _ := strings.Cut(arg, "=")
		if code != 2 || !strings.HasPrefix(stderr.String(), name+" must be >= 0") {
			t.Errorf("%s: exit %d, stderr %q; want exit 2 and an error naming %s", arg, code, stderr.String(), name)
		}
	}
}
