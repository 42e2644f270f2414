module roadknn/bench

go 1.24

require roadknn v0.0.0

replace roadknn => ../
