cubecomplex v1
# a 4-cube and a 3-cube sharing a square: the 5-character 0/1 names whose
# 5th character is 0 or whose 3rd and 4th are both 0; walls h0..h4 are
# characters 5..1.  Some four-panel families fail to collapse (known defect).
vertex 00000
vertex 00001
vertex 00010
vertex 00100
vertex 00110
vertex 01000
vertex 01001
vertex 01010
vertex 01100
vertex 01110
vertex 10000
vertex 10001
vertex 10010
vertex 10100
vertex 10110
vertex 11000
vertex 11001
vertex 11010
vertex 11100
vertex 11110
edge 00000 00001
edge 00000 00010
edge 00000 00100
edge 00000 01000
edge 00000 10000
edge 00001 01001
edge 00001 10001
edge 00010 00110
edge 00010 01010
edge 00010 10010
edge 00100 00110
edge 00100 01100
edge 00100 10100
edge 00110 01110
edge 00110 10110
edge 01000 01001
edge 01000 01010
edge 01000 01100
edge 01000 11000
edge 01001 11001
edge 01010 01110
edge 01010 11010
edge 01100 01110
edge 01100 11100
edge 01110 11110
edge 10000 10001
edge 10000 10010
edge 10000 10100
edge 10000 11000
edge 10001 11001
edge 10010 10110
edge 10010 11010
edge 10100 10110
edge 10100 11100
edge 10110 11110
edge 11000 11001
edge 11000 11010
edge 11000 11100
edge 11010 11110
edge 11100 11110
