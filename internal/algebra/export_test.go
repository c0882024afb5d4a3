package algebra

// Fixtures of this package's tests, exported to the external test package
// (corpus_test.go).
var Docs = docs

const Q1 = q1
