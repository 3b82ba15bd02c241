package prof

import (
	"flag"
	"testing"
)

// TestFlags: each registered flag lands in its Profiles field, and no flag
// set means no profile.
func TestFlags(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	get := Flags(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if got := get(); got != (Profiles{}) {
		t.Fatalf("defaults: got %+v, want no profiles", got)
	}
	fs = flag.NewFlagSet("test", flag.ContinueOnError)
	get = Flags(fs)
	args := []string{"-cpuprofile", "c", "-memprofile", "m", "-blockprofile", "b", "-mutexprofile", "x"}
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	if got, want := get(), (Profiles{CPU: "c", Mem: "m", Block: "b", Mutex: "x"}); got != want {
		t.Fatalf("got %+v, want %+v", got, want)
	}
}
