package storage

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"hivempi/internal/dfs"
)

// orcFileDigest is the SHA-256 of the multi-stripe ORC file written by
// TestORCWriterBytesPinned. The writer reuses one flate compressor
// across columns and stripes; flate.Writer.Reset is specified to be
// equivalent to a fresh NewWriter, so the bytes must not move.
const orcFileDigest = "480be598f73c10ae7cc213d53a52ca1582f1d8bcc590450434797a0e85cf949e"

func TestORCWriterBytesPinned(t *testing.T) {
	fs := dfs.New(dfs.Config{BlockSize: 16 << 10, Nodes: []string{"n1"}})
	writeRows(t, fs, "/pin.orc", FormatORC, testSchema(), testRows(20000))
	data, err := fs.ReadFile("/pin.orc")
	if err != nil {
		t.Fatal(err)
	}
	stripes := orcStripes(t, fs, "/pin.orc")
	if stripes < 4 {
		t.Fatalf("want a multi-stripe file, got %d stripes", stripes)
	}
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); got != orcFileDigest {
		t.Errorf("orc file digest = %s (%d bytes, %d stripes), want %s",
			got, len(data), stripes, orcFileDigest)
	}
}
