package datampi

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"strings"
	"testing"

	"hivempi/internal/testutil/leakcheck"
)

// sendSequenceDigest is the SHA-256 of every O task's SendEvents list
// and forced-flush count for the fixed job in TestSendSequencePinned.
// Partition buffers start small and grow with append, but flushes fire
// on buffered length, so the digest must not depend on buffer capacity.
const sendSequenceDigest = "3ad0c24c080ec3c0a7d637ed50e555826779fdecd750ea29ab39c7fab511af84"

// TestSendSequencePinned runs a fixed mixed-size shuffle at the default
// send-buffer size (so full and residual flushes both occur, with and
// without a combiner) and pins the flush sequence it produces.
func TestSendSequencePinned(t *testing.T) {
	defer leakcheck.Check(t)()
	const numO, numA, pairsPerO = 3, 4, 6000
	var sb strings.Builder
	for _, combine := range []bool{false, true} {
		cfg := Config{NumO: numO, NumA: numA, NonBlocking: true}
		if combine {
			cfg.Combiner = func(key []byte, vals [][]byte) [][]byte { return vals[:1] }
		}
		job, err := NewJob(cfg)
		if err != nil {
			t.Fatal(err)
		}
		err = job.Run(
			func(o *OContext) error {
				for i := 0; i < pairsPerO; i++ {
					n := (i*7 + o.Rank()*13) % 97
					key := fmt.Sprintf("k%d-%s", n%211, strings.Repeat("x", n%23))
					val := strings.Repeat("v", (i*31)%157)
					if err := o.Send([]byte(key), []byte(val)); err != nil {
						return err
					}
				}
				return nil
			},
			func(a *AContext) error {
				for {
					if _, _, err := a.NextGroup(); err == io.EOF {
						return nil
					} else if err != nil {
						return err
					}
				}
			})
		if err != nil {
			t.Fatal(err)
		}
		for rank, m := range job.OMetrics() {
			fmt.Fprintf(&sb, "combine=%v o=%d forced=%d events=%d\n", combine, rank, m.ForcedFlushes, len(m.SendEvents))
			for _, e := range m.SendEvents {
				fmt.Fprintf(&sb, "%d@%d:%g\n", e.Bytes, e.Dest, e.Progress)
			}
		}
	}
	sum := sha256.Sum256([]byte(sb.String()))
	if got := hex.EncodeToString(sum[:]); got != sendSequenceDigest {
		t.Errorf("send sequence digest = %s, want %s\n%s", got, sendSequenceDigest, sb.String())
	}
}
