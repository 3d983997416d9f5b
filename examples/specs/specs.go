// Package specs embeds the example workload specs of this directory, so the
// experiments and tests that dogfood them run the shipped files themselves
// rather than copies.
package specs

import "embed"

//go:embed *.yaml
var files embed.FS

// Read returns the named example spec, e.g. Read("flashcrowd.yaml"). An
// unknown name is a programming error and panics.
func Read(name string) []byte {
	data, err := files.ReadFile(name)
	if err != nil {
		panic(err)
	}
	return data
}
