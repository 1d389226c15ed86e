module ccai/benchmark

go 1.24

require ccai v0.0.0

replace ccai => ../
