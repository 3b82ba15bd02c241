// The benchmark is a module of its own so that the repository's tier-1
// `go build ./... && go test ./...` never compiles or runs it. The module
// path keeps the `repro/` prefix, which is what lets layers.go import
// repro/internal/...; the replace directive points at the checkout itself.
module repro/bench

go 1.22

require repro v0.0.0

replace repro => ../
