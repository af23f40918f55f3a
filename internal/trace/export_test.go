package trace

// ValidateChunked exposes validateChunked to the external tests.
var ValidateChunked = validateChunked
