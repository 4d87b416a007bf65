module tick_at_eof;
  localparam P = '