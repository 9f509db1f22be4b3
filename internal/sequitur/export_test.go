package sequitur

// DiffBuild lends diffBuild to the external test package (apps_test.go),
// which cannot live in package sequitur because it imports merge, and merge
// imports sequitur.
var DiffBuild = diffBuild
