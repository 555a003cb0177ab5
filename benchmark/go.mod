module github.com/arrow-te/arrow/benchmark

go 1.22

require github.com/arrow-te/arrow v0.0.0

replace github.com/arrow-te/arrow => ../
