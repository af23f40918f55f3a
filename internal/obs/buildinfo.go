package obs

import (
	"fmt"
	"os/exec"
	"runtime/debug"
	"strings"
)

// Build identifies the binary that produced a metric stream.
type Build struct {
	Path      string // main module path
	Version   string // module version ("(devel)" for source builds)
	GoVersion string
	Revision  string // VCS revision, "" when stamped info is absent
	Dirty     bool
	Time      string // VCS commit time, "" when absent
}

// BuildInfo reads the binary's embedded build information
// (runtime/debug.ReadBuildInfo). VCS fields are stamped only when the
// binary was built from a checkout with `go build`; `go run` and test
// binaries leave them empty.
func BuildInfo() Build {
	b := Build{Version: "unknown"}
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return b
	}
	b.Path = info.Main.Path
	if info.Main.Version != "" {
		b.Version = info.Main.Version
	}
	b.GoVersion = info.GoVersion
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			b.Revision = s.Value
		case "vcs.modified":
			b.Dirty = s.Value == "true"
		case "vcs.time":
			b.Time = s.Value
		}
	}
	return b
}

// String renders the build stamp for -version output.
func (b Build) String() string {
	rev := b.Revision
	if rev == "" {
		rev = "unknown"
	} else if len(rev) > 12 {
		rev = rev[:12]
	}
	if b.Dirty {
		rev += "-dirty"
	}
	return fmt.Sprintf("%s %s (%s, rev %s)", b.Path, b.Version, b.GoVersion, rev)
}

// GitRev identifies the current revision for metric attribution,
// preferring the binary's stamped VCS info and falling back to the
// working tree's `git rev-parse` (the same convention as the
// BENCH_replay.json entries). Returns "unknown" when neither source is
// available.
func GitRev() string {
	if b := BuildInfo(); b.Revision != "" {
		rev := b.Revision
		if len(rev) > 12 {
			rev = rev[:12]
		}
		if b.Dirty {
			rev += "-dirty"
		}
		return rev
	}
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	rev := strings.TrimSpace(string(out))
	if status, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(status) > 0 {
		rev += "-dirty"
	}
	return rev
}
