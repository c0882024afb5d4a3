package opt

// Passes runs Optimize and returns the number of rule passes it took.
var Passes = optimize
