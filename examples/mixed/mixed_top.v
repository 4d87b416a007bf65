// Mixed-language hierarchy fixture: a Verilog top that instantiates one
// Verilog child (below) and one VHDL child (mixed_leaf.vhd).
//
//   dovado-repro hierarchy examples/mixed/mixed_top.v examples/mixed/mixed_leaf.vhd
module mixed_top #(parameter WIDTH = 8) (
  input  wire             clk,
  input  wire [WIDTH-1:0] d,
  output wire [WIDTH-1:0] q,
  output wire [WIDTH-1:0] r
);
  mixed_child #(.WIDTH(WIDTH)) u_child (.clk(clk), .d(d), .q(q));
  mixed_leaf #(.WIDTH(WIDTH)) u_leaf (.clk(clk), .d(d), .q(r));
endmodule

module mixed_child #(parameter WIDTH = 8) (
  input  wire             clk,
  input  wire [WIDTH-1:0] d,
  output reg  [WIDTH-1:0] q
);
  always @(posedge clk) q <= d;
endmodule
