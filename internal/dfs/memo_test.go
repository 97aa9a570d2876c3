package dfs

import (
	"errors"
	"testing"
)

// memoOf opens p and returns its memo, counting decode calls in *calls.
// The decoded value is the reader's latched size.
func memoOf(t *testing.T, fs *FileSystem, p string, calls *int) int64 {
	t.Helper()
	r, err := fs.Open(p)
	if err != nil {
		t.Fatal(err)
	}
	v, err := r.Memo(func() (any, error) {
		*calls++
		return r.Size(), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return v.(int64)
}

func TestReaderMemoFollowsFileLifetime(t *testing.T) {
	fs := newTestFS()
	calls := 0
	if err := fs.WriteFile("/a", make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	memoOf(t, fs, "/a", &calls)
	memoOf(t, fs, "/a", &calls)
	if calls != 1 {
		t.Fatalf("published file decoded %d times, want 1", calls)
	}

	// Rename carries the file object, and with it the memo.
	if err := fs.Rename("/a", "/b"); err != nil {
		t.Fatal(err)
	}
	memoOf(t, fs, "/b", &calls)
	if calls != 1 {
		t.Errorf("rename dropped the memo (%d decodes)", calls)
	}

	// Overwrite publishes a new file object: the old memo is gone.
	if err := fs.WriteFile("/b", make([]byte, 300)); err != nil {
		t.Fatal(err)
	}
	if got := memoOf(t, fs, "/b", &calls); got != 300 || calls != 2 {
		t.Errorf("after overwrite: memo %d, %d decodes; want 300, 2", got, calls)
	}

	// Delete then recreate at the same size still decodes afresh.
	fs.Delete("/b")
	if err := fs.WriteFile("/b", make([]byte, 300)); err != nil {
		t.Fatal(err)
	}
	memoOf(t, fs, "/b", &calls)
	if calls != 3 {
		t.Errorf("delete+recreate reused the memo (%d decodes)", calls)
	}
}

func TestReaderMemoKeyedOnLatchedSize(t *testing.T) {
	fs := newTestFS()
	w, err := fs.Create("/growing")
	if err != nil {
		t.Fatal(err)
	}
	// 200 bytes at a 64-byte block size publish three full blocks
	// before Close.
	if _, err := w.Write(make([]byte, 200)); err != nil {
		t.Fatal(err)
	}
	calls := 0
	if got := memoOf(t, fs, "/growing", &calls); got != 192 {
		t.Fatalf("mid-write reader saw %d bytes, want 192", got)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got := memoOf(t, fs, "/growing", &calls); got != 200 || calls != 2 {
		t.Errorf("finished file served a partial memo: %d (%d decodes)", got, calls)
	}
	memoOf(t, fs, "/growing", &calls)
	if calls != 2 {
		t.Errorf("finished file decoded %d times, want 2", calls)
	}
}

func TestReaderMemoKeepsOnlySuccess(t *testing.T) {
	fs := newTestFS()
	if err := fs.WriteFile("/f", make([]byte, 10)); err != nil {
		t.Fatal(err)
	}
	r, err := fs.Open("/f")
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	if _, err := r.Memo(func() (any, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("decode error not returned: %v", err)
	}
	calls := 0
	memoOf(t, fs, "/f", &calls)
	if calls != 1 {
		t.Errorf("failed decode was cached (%d decodes after it)", calls)
	}
}
