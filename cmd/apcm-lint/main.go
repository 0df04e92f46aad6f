// Command apcm-lint is the repo's go/analysis suite (internal/lint) as
// a go vet tool: hotpathalloc, scratchrelease, metricname, lockorder,
// goroutinelife and fsyncorder. It speaks the unitchecker protocol, so
// the go command hands it one package at a time with pre-computed
// export data and no network or go/packages dependency is needed:
//
//	go build -o apcm-lint ./cmd/apcm-lint
//	go vet -vettool=$PWD/apcm-lint ./...
//
// `make lint` runs exactly that; any finding fails it.
package main

import (
	"golang.org/x/tools/go/analysis/unitchecker"

	"github.com/streammatch/apcm/internal/lint"
)

func main() {
	unitchecker.Main(lint.Analyzers()...)
}
