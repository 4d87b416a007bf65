module signed_tick_at_eof;
  localparam P = 's