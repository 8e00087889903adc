package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// goldenPath is where -mint writes, relative to the repository root (where
// `go run ./bench` runs) or to bench/ itself.
func goldenPath() (string, error) {
	for _, p := range []string{filepath.Join("bench", "golden.json"), "golden.json"} {
		if _, err := os.Stat(p); err == nil {
			return p, nil
		}
	}
	return "", fmt.Errorf("golden.json not found: run -mint from the repository root or from bench/")
}

// mint recomputes every op's digest — full and smoke pools of every
// workload — with the sequential engine, and writes golden.json. A digest
// that differs from the committed one is a changed answer, so mint refuses
// to overwrite it unless -force is given; new ops are added silently.
func mint(o options, out io.Writer) error {
	path, err := goldenPath()
	if err != nil {
		return err
	}
	old, err := loadGolden()
	if err != nil {
		return err
	}
	fresh := map[string]string{}
	for _, info := range workloads {
		for _, smoke := range []bool{false, true} {
			w, err := info.make(config{seed: 1, smoke: smoke})
			if err != nil {
				return err
			}
			digests, err := w.oracle()
			if err != nil {
				return fmt.Errorf("%s: %w", info.name, err)
			}
			for id, d := range digests {
				fresh[info.name+"/"+id] = d
			}
		}
	}
	changed := 0
	for k, d := range fresh {
		if prev, ok := old[k]; ok && prev != d {
			changed++
			fmt.Fprintf(out, "changed: %s: %s -> %s\n", k, prev, d)
		}
	}
	if changed > 0 && !o.force {
		return fmt.Errorf("%d committed digests differ from the sequential engine's answers; rerun with -force to overwrite them", changed)
	}
	data, err := json.MarshalIndent(fresh, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "minted %d digests into %s (%d changed, %d new, %d dropped)\n",
		len(fresh), path, changed, len(fresh)-countShared(fresh, old), len(old)-countShared(fresh, old))
	return nil
}

func countShared(a, b map[string]string) int {
	n := 0
	for k := range a {
		if _, ok := b[k]; ok {
			n++
		}
	}
	return n
}
