package runner

import (
	"testing"

	"tributarydelta/internal/network"
	"tributarydelta/internal/transport"
)

// TestGoldenAnswersChanTransport re-runs the golden workloads with the
// deterministic goroutine-per-node chan transport substituted for the
// in-process simulator and compares against the very same golden file: the
// concurrent runtime must not move a single answer.
func TestGoldenAnswersChanTransport(t *testing.T) {
	got := goldenRuns(t, func(net *network.Net) Transport {
		ch := transport.New(net, transport.Options{Deterministic: true})
		t.Cleanup(ch.Close)
		return ch
	})
	compareGolden(t, got)
}
