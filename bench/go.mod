module tributarydelta/bench

go 1.24

require tributarydelta v0.0.0

replace tributarydelta => ../
