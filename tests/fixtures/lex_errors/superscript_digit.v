module superscript_digit;
  localparam P = ²;
endmodule
